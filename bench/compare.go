package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// set holds a recorded set's untraced values: workload → metric →
// one value per run.
type set map[string]map[string][]float64

func readSet(path string) (set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := set{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 || rec.Result == nil {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, the median and the third
// quartile as Python's statistics.quantiles(values, n=4) and
// statistics.median compute them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 { // the "exclusive" method
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// verdict judges set b against baseline a for one metric: "worse" when
// b's median is worse than a's by more than the bound, "unresolved"
// when either set's spread exceeds the bound (unless every run of b
// beats every run of a), else "no worse".
func verdict(d metricDef, a, b []float64) (change float64, v string) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	if ma != 0 {
		change = sign * (mb - ma) / math.Abs(ma)
	} else if mb != ma {
		change = math.Inf(int(sign))
	}
	if max(spread(a), spread(b)) > d.Bound {
		better := func(x, y float64) bool { return sign*(x-y) < 0 }
		if better(slices.Max(b), slices.Min(a)) && better(slices.Min(b), slices.Max(a)) {
			return change, "no worse"
		}
		return change, "unresolved"
	}
	if change > d.Bound {
		return change, "worse"
	}
	return change, "no worse"
}

// runCompare prints every (workload, end-to-end metric) pair of two
// recorded sets with medians, quartiles, bound and verdict. It exits
// 1 when any pair is worse.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench -compare baseline.jsonl candidate.jsonl")
		return 2
	}
	a, err := readSet(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	b, err := readSet(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-10s %-15s %-36s %-36s %8s %6s %7s  %s\n",
		"workload", "metric", "baseline median [q1, q3] (runs)", "candidate median [q1, q3] (runs)", "worse by", "bound", "spread", "verdict")
	worse := false
	pairs := 0
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			av, bv := a[wl][d.Name], b[wl][d.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			pairs++
			change, v := verdict(d, av, bv)
			worse = worse || v == "worse"
			fmt.Fprintf(stdout, "%-10s %-15s %-36s %-36s %+7.2f%% %5.1f%% %6.2f%%  %s\n",
				wl, d.Name, fmtQuartiles(av), fmtQuartiles(bv), 100*change, 100*d.Bound,
				100*max(spread(av), spread(bv)), v)
		}
	}
	if pairs == 0 {
		fmt.Fprintln(stderr, "bench: the two sets share no untraced (workload, metric) pair")
		return 1
	}
	if worse {
		return 1
	}
	return 0
}

func fmtQuartiles(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", med, q1, q3, len(xs))
}
