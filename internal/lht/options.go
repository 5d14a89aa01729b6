package lht

import (
	"time"

	"lht/internal/dht"
	"lht/internal/metrics"
)

// Option configures an index at construction. Options layer over the
// Config struct: BuildConfig starts from DefaultConfig and applies each
// option in order, and Config itself satisfies Option (replacing the
// whole configuration), so the two styles compose — a full Config can
// seed the build and individual options override fields after it.
type Option interface {
	applyOption(*Config)
}

// optionFunc adapts a function to the Option interface.
type optionFunc func(*Config)

func (f optionFunc) applyOption(c *Config) { f(c) }

// applyOption makes Config an Option: supplying one replaces the whole
// configuration built so far, which keeps New(d, cfg) calls working
// unchanged under the variadic facade.
func (c Config) applyOption(dst *Config) { *dst = c }

// BuildConfig resolves a Config from DefaultConfig plus the options, in
// order.
func BuildConfig(opts ...Option) Config {
	cfg := DefaultConfig()
	for _, o := range opts {
		o.applyOption(&cfg)
	}
	return cfg
}

// WithLeafCache enables the client-side leaf cache with the given
// capacity (0 means DefaultLeafCacheSize; see Config.LeafCache).
func WithLeafCache(size int) Option {
	return optionFunc(func(c *Config) {
		c.LeafCache = true
		c.LeafCacheSize = size
	})
}

// WithPolicy interposes the retry/backoff layer (see Config.Policy).
func WithPolicy(p dht.Policy) Option {
	return optionFunc(func(c *Config) { c.Policy = &p })
}

// WithBatchSize caps the keys per batched DHT operation (see
// Config.BatchSize).
func WithBatchSize(n int) Option {
	return optionFunc(func(c *Config) { c.BatchSize = n })
}

// WithTraceSink attaches a structured op-event sink (see
// Config.TraceSink).
func WithTraceSink(s metrics.TraceSink) Option {
	return optionFunc(func(c *Config) { c.TraceSink = s })
}

// WithAggregate chains the index's counters to a shared parent (see
// Config.Aggregate).
func WithAggregate(agg *metrics.Counters) Option {
	return optionFunc(func(c *Config) { c.Aggregate = agg })
}

// WithDepth sets D, the a-priori maximum tree depth (see Config.Depth).
func WithDepth(d int) Option {
	return optionFunc(func(c *Config) { c.Depth = d })
}

// WithThresholds sets theta_split and the merge hysteresis threshold
// (see Config.SplitThreshold, Config.MergeThreshold).
func WithThresholds(split, merge int) Option {
	return optionFunc(func(c *Config) {
		c.SplitThreshold = split
		c.MergeThreshold = merge
	})
}

// WithHedgedGets enables quantile-triggered hedged reads with the given
// trigger floor (see Config.HedgeAfter; 0 disables).
func WithHedgedGets(after time.Duration) Option {
	return optionFunc(func(c *Config) { c.HedgeAfter = after })
}

// WithRereplication extends Scrub with a replica-repair pass on
// substrates that implement dht.Rereplicator (see Config.Rereplicate).
func WithRereplication(on bool) Option {
	return optionFunc(func(c *Config) { c.Rereplicate = on })
}
