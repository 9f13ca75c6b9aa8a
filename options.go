package fairindex

import (
	"fmt"

	"fairindex/internal/pipeline"
)

// ErrConfig reports an invalid build configuration. Errors returned
// by Build for bad options wrap it, so callers can errors.Is against
// a single sentinel.
var ErrConfig = pipeline.ErrConfig

// Option configures a Build. Options are applied in order onto the
// default configuration — the paper's Fair KD-tree at height 8 —
// and later options override earlier ones. Invalid values surface as
// errors from Build, wrapping ErrConfig.
type Option func(*Config) error

// WithMethod selects the partitioning / mitigation strategy (default
// MethodFairKD, the paper's headline index).
func WithMethod(m Method) Option {
	return func(c *Config) error {
		c.Method = m
		return nil
	}
}

// WithHeight sets the tree height th (leaf count ≤ 2^th).
func WithHeight(h int) Option {
	return func(c *Config) error {
		if h < 0 {
			return fmt.Errorf("%w: height %d", ErrConfig, h)
		}
		c.Height = h
		return nil
	}
}

// WithModel selects the classifier family for both the initial
// scoring run and the final model.
func WithModel(k ModelKind) Option {
	return func(c *Config) error {
		c.Model = k
		return nil
	}
}

// WithEncoding selects the neighborhood feature encoding of the final
// training (default centroid+one-hot).
func WithEncoding(e Encoding) Option {
	return func(c *Config) error {
		c.Encoding = e
		return nil
	}
}

// WithTask selects the label column for single-task methods.
func WithTask(task int) Option {
	return func(c *Config) error {
		if task < 0 {
			return fmt.Errorf("%w: task %d", ErrConfig, task)
		}
		c.Task = task
		return nil
	}
}

// WithAlphas sets the per-task weights for the multi-objective method
// (MethodMultiObjectiveFairKD). Supplying alphas with any other
// method is a configuration error.
func WithAlphas(alphas ...float64) Option {
	return func(c *Config) error {
		if len(alphas) == 0 {
			return fmt.Errorf("%w: empty alphas", ErrConfig)
		}
		c.Alphas = append([]float64(nil), alphas...)
		return nil
	}
}

// WithObjective selects the fair split scoring function.
func WithObjective(o Objective) Option {
	return func(c *Config) error {
		c.Objective = o
		return nil
	}
}

// WithLambda sets the geometry/fairness blend of
// ObjectiveComposite.
func WithLambda(lambda float64) Option {
	return func(c *Config) error {
		c.Lambda = lambda
		return nil
	}
}

// WithObjectiveMetric replaces the fair split objective with a
// registered fairness metric: each candidate split is scored by the
// metric over the two halves' pooled sufficient statistics and the
// split minimizing it wins — e.g. WithObjectiveMetric("atkinson")
// builds a balance-constrained partitioning that equalizes
// miscalibration across the halves of every split. Supported by
// MethodFairKD and MethodMultiObjectiveFairKD; the empty default
// keeps the paper's Eq. 9 objective bit-identical to earlier
// releases. The metric name must be registered (RegisterMetric) in
// the building process; it is not serialized into the artifact.
func WithObjectiveMetric(name string) Option {
	return func(c *Config) error {
		c.ObjectiveMetric = name
		return nil
	}
}

// WithTestFrac sets the held-out fraction (default 0.2). Zero is
// rejected rather than silently restoring the default: the pipeline
// always evaluates on a held-out split.
func WithTestFrac(f float64) Option {
	return func(c *Config) error {
		if f <= 0 || f >= 1 {
			return fmt.Errorf("%w: test fraction %v (must be in (0,1))", ErrConfig, f)
		}
		c.TestFrac = f
		return nil
	}
}

// WithSeed drives the train/test split and the zip-code layout.
func WithSeed(seed int64) Option {
	return func(c *Config) error {
		c.Seed = seed
		return nil
	}
}

// WithZipSites sets the number of Voronoi regions for MethodZipCode
// (default 40).
func WithZipSites(n int) Option {
	return func(c *Config) error {
		if n <= 0 {
			return fmt.Errorf("%w: zip sites %d", ErrConfig, n)
		}
		c.ZipSites = n
		return nil
	}
}

// WithECEBins sets the bin count of per-neighborhood ECE reports
// (default 15).
func WithECEBins(n int) Option {
	return func(c *Config) error {
		if n <= 0 {
			return fmt.Errorf("%w: ECE bins %d", ErrConfig, n)
		}
		c.ECEBins = n
		return nil
	}
}

// WithReweight forces Kamiran–Calders sample weights in the final
// training regardless of method.
func WithReweight(on bool) Option {
	return func(c *Config) error {
		c.Reweight = on
		return nil
	}
}

// WithPostProcess selects the optional per-neighborhood score
// recalibration (PostPlatt or PostIsotonic) applied after the final
// training. The fitted calibrators become part of the Index and are
// applied by Score.
func WithPostProcess(p PostProcess) Option {
	return func(c *Config) error {
		switch p {
		case PostNone, PostPlatt, PostIsotonic:
			c.PostProcess = p
			return nil
		}
		return fmt.Errorf("%w: unknown post-process %d", ErrConfig, int(p))
	}
}

// WithConfig replaces the whole configuration with cfg — the bridge
// from the legacy Config-struct surface into the options world. Apply
// it first; later options override individual fields.
func WithConfig(cfg Config) Option {
	return func(c *Config) error {
		*c = cfg
		// Copy the reference field so later caller mutations cannot
		// reach into the built Index.
		c.Alphas = append([]float64(nil), cfg.Alphas...)
		return nil
	}
}

// resolveOptions folds opts over Build's default configuration.
func resolveOptions(opts []Option) (Config, error) {
	cfg := Config{Method: MethodFairKD, Height: 8}
	for _, opt := range opts {
		if opt == nil {
			return cfg, fmt.Errorf("%w: nil option", ErrConfig)
		}
		if err := opt(&cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}
