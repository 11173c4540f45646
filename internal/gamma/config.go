package gamma

import (
	"fmt"

	"repro/internal/fault"
)

// Option composably arms an optional per-run subsystem on a Config. The
// telemetry, heat and sharing specs follow one pattern — a nil pointer
// means "off and byte-identical to a build without the subsystem", a
// non-nil spec arms it with zero values deferring to defaults — and the
// options are the one sanctioned way to set them: build a Config with
// DefaultConfig().With(...) instead of poking spec fields directly, and
// Config.Validate (called by Build) is the single validation path for the
// result.
type Option func(*Config)

// WithTelemetry arms windowed time-series sampling.
func WithTelemetry(spec TelemetrySpec) Option {
	return func(c *Config) { s := spec; c.Telemetry = &s }
}

// WithHeat arms fragment-granularity heat accounting.
func WithHeat(spec HeatSpec) Option {
	return func(c *Config) { s := spec; c.Heat = &s }
}

// WithSharing arms the shared-scan manager.
func WithSharing(spec SharingSpec) Option {
	return func(c *Config) { s := spec; c.Sharing = &s }
}

// WithElastic arms elastic cluster membership: planned join/leave/
// decommission events, throttled fragment rebalancing, and promotion of
// permanent node crashes into repair tasks.
func WithElastic(spec ElasticSpec) Option {
	return func(c *Config) { s := spec; c.Elastic = &s }
}

// WithFaults arms the deterministic fault injector (and degraded-mode
// scheduling).
func WithFaults(spec *fault.Spec) Option {
	return func(c *Config) { c.Faults = spec }
}

// WithChainedReplicas mirrors every fragment on its chain successor.
func WithChainedReplicas() Option {
	return func(c *Config) { c.ChainedReplicas = true }
}

// With returns a copy of the config with the options applied.
func (c Config) With(opts ...Option) Config {
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Validate is the single validation path for a machine configuration:
// hardware parameters, buffer sizing, the fault spec, every optional
// subsystem spec, and cross-subsystem exclusions. Build calls it; direct
// Config consumers can call it early for better error locality.
func (c *Config) Validate(processors int) error {
	if err := c.HW.Validate(); err != nil {
		return err
	}
	if c.BufferPages < 0 {
		return fmt.Errorf("gamma: negative buffer size %d", c.BufferPages)
	}
	if err := c.Faults.Validate(processors); err != nil {
		return err
	}
	if err := c.Telemetry.validate(); err != nil {
		return err
	}
	if err := c.Heat.validate(); err != nil {
		return err
	}
	if err := c.Sharing.validate(); err != nil {
		return err
	}
	if err := c.Elastic.validate(processors); err != nil {
		return err
	}
	return nil
}
