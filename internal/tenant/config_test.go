package tenant

import (
	"errors"
	"math"
	"testing"
	"time"

	"jitgc/internal/sim"
	"jitgc/internal/workload"
)

// validConfig returns a configuration that passes Validate after defaults.
func validConfig() Config {
	return Config{
		Tenants:         4,
		OpsPerTenant:    10,
		Rate:            5,
		WorkingSetPages: 1024,
		Device:          sim.DefaultConfig(),
	}.withDefaults()
}

func TestValidateAcceptsDefaults(t *testing.T) {
	if err := validConfig().Validate(); err != nil {
		t.Errorf("defaulted config invalid: %v", err)
	}
}

// TestValidateNamedErrors pins the two liveness hazards to their named
// errors, so callers can errors.Is on them: a zero/negative class weight
// (the tenant would rotate in the DRR list forever without earning deficit)
// and an unbounded queue depth (an overloaded run would grow backlog
// without a drop signal and never drain).
func TestValidateNamedErrors(t *testing.T) {
	for _, weight := range []int64{0, -3} {
		cfg := validConfig()
		cfg.Classes = []Class{{Name: "broken", Weight: weight, SLO: time.Millisecond}}
		err := cfg.Validate()
		if !errors.Is(err, ErrNonPositiveWeight) {
			t.Errorf("weight %d: got %v, want ErrNonPositiveWeight", weight, err)
		}
	}
	cfg := validConfig()
	cfg.QueueDepth = -1
	if err := cfg.Validate(); !errors.Is(err, ErrUnboundedQueue) {
		t.Errorf("depth -1: got %v, want ErrUnboundedQueue", err)
	}
	// A zero depth means "default", not "unbounded": withDefaults fills it
	// before Validate ever sees it.
	cfg = validConfig()
	if cfg.QueueDepth != 64 {
		t.Errorf("defaulted queue depth %d, want 64", cfg.QueueDepth)
	}
}

// TestValidateRejectsOtherHazards sweeps the remaining validation arms.
func TestValidateRejectsOtherHazards(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no tenants", func(c *Config) { c.Tenants = 0 }},
		{"no ops", func(c *Config) { c.OpsPerTenant = 0 }},
		{"bad arrival", func(c *Config) { c.Arrival = "weibull" }},
		{"no rate", func(c *Config) { c.Rate = 0 }},
		{"NaN rate", func(c *Config) { c.Rate = math.NaN() }},
		{"infinite rate", func(c *Config) { c.Rate = math.Inf(1) }},
		{"no quantum", func(c *Config) { c.Quantum = -1 }},
		{"no classes", func(c *Config) { c.Classes = []Class{} }},
		{"zero SLO", func(c *Config) { c.Classes = []Class{{Name: "x", Weight: 1}} }},
		{"working set too small", func(c *Config) { c.WorkingSetPages = int64(c.Tenants) - 1 }},
	}
	for _, tc := range cases {
		cfg := validConfig()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the config", tc.name)
		}
	}
}

// TestNewRejectsInvalidConfig checks the constructor surfaces validation
// errors (the engine must never be built around a config that can hang).
func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := validConfig()
	cfg.Classes = []Class{{Name: "broken", Weight: 0, SLO: time.Millisecond}}
	if _, err := New(cfg, lazyFactory); !errors.Is(err, ErrNonPositiveWeight) {
		t.Errorf("New: got %v, want ErrNonPositiveWeight", err)
	}
}

// TestWithDefaultsForcesNonPreemptiveBGC: open-loop backpressure is only
// meaningful when collections occupy the device for real.
func TestWithDefaultsForcesNonPreemptiveBGC(t *testing.T) {
	cfg := Config{Device: sim.DefaultConfig()}
	cfg.Device.NonPreemptiveBGC = false
	if !cfg.withDefaults().Device.NonPreemptiveBGC {
		t.Error("withDefaults left NonPreemptiveBGC off")
	}
}

// TestValidateRejectsSlicesTooSmallForAProfile: 100 tenants on 1,000 pages
// leave 10-page slices, below TPC-C's 17-page minimum, and tenant.New used
// to panic generating TPC-C's stream. Validate now names the error, and a
// slice that only the profiles in use need to fit is still accepted.
func TestValidateRejectsSlicesTooSmallForAProfile(t *testing.T) {
	cases := []struct {
		tenants int
		pages   int64
		ok      bool
	}{
		{100, 1000, false},
		{100, 1699, false},
		{100, 1700, true},
		{5, 5 * 3, false}, // Tiobench, the fifth profile, needs 4 pages
		{5, 5 * 10, true}, // no tenant runs TPC-C
		{1, 1, true},
	}
	for _, c := range cases {
		cfg := validConfig()
		cfg.Tenants, cfg.WorkingSetPages = c.tenants, c.pages
		err := cfg.Validate()
		if c.ok {
			if err != nil {
				t.Errorf("%d tenants on %d pages: %v", c.tenants, c.pages, err)
				continue
			}
			if _, err := newSource(cfg); err != nil {
				t.Errorf("%d tenants on %d pages: newSource: %v", c.tenants, c.pages, err)
			}
		} else if !errors.Is(err, workload.ErrWorkingSetTooSmall) {
			t.Errorf("%d tenants on %d pages: got %v, want ErrWorkingSetTooSmall", c.tenants, c.pages, err)
		}
	}
}
