package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"strings"

	fairindex "fairindex"
	"fairindex/internal/rebuild"
	"fairindex/internal/router"
	"fairindex/internal/shard"
)

// runShardCmd splits a saved artifact into per-shard .fidx files plus
// the manifest binding them.
func runShardCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	n := fs.Int("n", 2, "number of shards to split into")
	outDir := fs.String("out", ".", "output directory for shard artifacts and manifest")
	prefix := fs.String("prefix", "", "artifact name prefix (default: input base name)")
	path := fs.String("index", "", "input .fidx artifact (may be positional)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *path == "" && fs.NArg() == 1:
		*path = fs.Arg(0)
	case *path != "" && fs.NArg() == 0:
	default:
		return fmt.Errorf("shard: exactly one index artifact required (-index or positional)")
	}
	idx, err := fairindex.LoadIndex(*path)
	if err != nil {
		return err
	}
	m, shards, err := shard.Split(idx, *n)
	if err != nil {
		return err
	}
	if *prefix == "" {
		*prefix = strings.TrimSuffix(filepath.Base(*path), ".fidx")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	// The manifest goes last: it names the shard artifacts, so a failed
	// shard write must not leave a manifest pointing at missing files.
	for i, sx := range shards {
		blob, err := sx.MarshalBinary()
		if err != nil {
			return fmt.Errorf("shard %s: %w", m.Shards[i].Name, err)
		}
		shardPath := filepath.Join(*outDir, fmt.Sprintf("%s-%s.fidx", *prefix, m.Shards[i].Name))
		if err := rebuild.WriteFileAtomic(shardPath, blob); err != nil {
			return fmt.Errorf("shard: %w", err)
		}
		fmt.Fprintf(out, "  %s: regions [%d,%d), fingerprint %d, %d bytes\n",
			shardPath, m.Shards[i].Lo, m.Shards[i].Hi, m.Shards[i].Fingerprint, len(blob))
	}
	manifestPath := filepath.Join(*outDir, *prefix+".manifest")
	if err := rebuild.WriteFileAtomic(manifestPath, m.Encode()); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	fmt.Fprintf(out, "%s: %d regions over %d shards, generation %d\n",
		manifestPath, m.NumRegions, len(m.Shards), m.Generation)
	return nil
}

// backendFlags collects repeated -shard name=url1,url2 flags: one
// manifest shard name mapping to its replica set. Repeating a name
// appends replicas to the same set, so `-shard s0=a -shard s0=b`
// equals `-shard s0=a,b`.
type backendFlags []router.Backend

func (b *backendFlags) String() string {
	parts := make([]string, len(*b))
	for i, be := range *b {
		parts[i] = be.Name + "=" + strings.Join(be.URLs, ",")
	}
	return strings.Join(parts, " ")
}

func (b *backendFlags) Set(s string) error {
	name, rest, ok := strings.Cut(s, "=")
	if !ok || name == "" || rest == "" {
		return fmt.Errorf("want name=url[,url...], got %q", s)
	}
	var urls []string
	for _, u := range strings.Split(rest, ",") {
		if u == "" {
			return fmt.Errorf("empty replica URL in %q", s)
		}
		urls = append(urls, u)
	}
	for i := range *b {
		if (*b)[i].Name == name {
			(*b)[i].URLs = append((*b)[i].URLs, urls...)
			return nil
		}
	}
	*b = append(*b, router.Backend{Name: name, URLs: urls})
	return nil
}

// runRouteCmd serves the scatter-gather router over running shard
// backends, re-reading the manifest file on SIGHUP or /v1/reload.
func runRouteCmd(args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	httpAddr := fs.String("http", ":8080", "listen address")
	manifestPath := fs.String("manifest", "", "shard plan manifest file (required)")
	timeout := fs.Duration("timeout", router.DefaultTimeout, "per-shard request timeout")
	var backends backendFlags
	fs.Var(&backends, "shard", "shard replica set as name=url[,url...] (repeat per manifest entry)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *timeout <= 0 {
		return fmt.Errorf("route: -timeout %v: want a positive duration", *timeout)
	}
	if *manifestPath == "" {
		return fmt.Errorf("route: -manifest is required")
	}
	if len(backends) == 0 {
		return fmt.Errorf("route: at least one -shard name=url[,url...] is required")
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("route: unexpected arguments %v", fs.Args())
	}
	source := func() (*shard.Manifest, error) {
		blob, err := os.ReadFile(*manifestPath)
		if err != nil {
			return nil, err
		}
		return shard.Decode(blob)
	}
	m, err := source()
	if err != nil {
		return fmt.Errorf("route: %w", err)
	}
	rt, err := router.New(m, backends,
		router.WithTimeout(*timeout), router.WithManifestSource(source))
	if err != nil {
		return fmt.Errorf("route: %w", err)
	}
	return routeHTTP(context.Background(), rt, *httpAddr, nil)
}

// routeHTTP runs the router, hot-reloading the manifest on SIGHUP or
// POST /v1/reload (see runHTTP).
func routeHTTP(ctx context.Context, rt *router.Router, addr string, onReady func(net.Addr)) error {
	banner := func(addr net.Addr) {
		m := rt.Manifest()
		fmt.Printf("routing %d regions over %d shards on %s (generation %d)\n",
			m.NumRegions, len(m.Shards), addr, m.Generation)
		for _, s := range m.Shards {
			fmt.Printf("  %s: regions [%d,%d), %d replica(s)\n", s.Name, s.Lo, s.Hi, len(rt.ShardHealth(s.Name)))
		}
	}
	reload := func() {
		if err := rt.Reload(); err != nil {
			log.Printf("route: reload: %v", err)
		} else {
			log.Printf("route: reloaded manifest, generation %d", rt.Manifest().Generation)
		}
	}
	return runHTTP(ctx, newHTTPServer(rt), addr, banner, reload, onReady)
}
