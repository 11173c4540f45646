package main

import (
	"strings"
	"testing"

	"repro/internal/serve"
)

func TestBuildOptions(t *testing.T) {
	opts, err := buildOptions("quick", 0, 0, "", 0, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Cardinality != 20000 {
		t.Fatalf("quick cardinality = %d", opts.Cardinality)
	}
	if opts.Seed != 1 || opts.SeedSet {
		t.Fatalf("default seed = %d (set=%v), want 1 (unset)", opts.Seed, opts.SeedSet)
	}
	opts, err = buildOptions("paper", 5000, 16, "1,4,8", 100, 10, 9, true)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Cardinality != 5000 || opts.Processors != 16 ||
		opts.MeasureQueries != 100 || opts.WarmupQueries != 10 || opts.Seed != 9 {
		t.Fatalf("overrides not applied: %+v", opts)
	}
	if len(opts.MPLs) != 3 || opts.MPLs[2] != 8 {
		t.Fatalf("MPLs = %v", opts.MPLs)
	}
}

// An explicit -seed 0 must survive as seed 0 instead of silently falling
// back to the scale default.
func TestBuildOptionsExplicitSeedZero(t *testing.T) {
	opts, err := buildOptions("quick", 0, 0, "", 0, 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Seed != 0 || !opts.SeedSet {
		t.Fatalf("explicit seed 0 became %d (set=%v)", opts.Seed, opts.SeedSet)
	}
}

func TestBuildOptionsErrors(t *testing.T) {
	if _, err := buildOptions("warp", 0, 0, "", 0, 0, 0, false); err == nil {
		t.Error("unknown scale accepted")
	}
	if _, err := buildOptions("quick", 0, 0, "1,zero", 0, 0, 0, false); err == nil {
		t.Error("bad MPL accepted")
	}
	if _, err := buildOptions("quick", 0, 0, "0", 0, 0, 0, false); err == nil {
		t.Error("non-positive MPL accepted")
	}
}

func TestSelectFigures(t *testing.T) {
	all, err := selectFigures("")
	if err != nil || len(all) != 9 {
		t.Fatalf("all figures: %d, %v", len(all), err)
	}
	some, err := selectFigures("8a, 12b")
	if err != nil || len(some) != 2 || some[1].ID != "12b" {
		t.Fatalf("subset: %v, %v", some, err)
	}
	if _, err := selectFigures("99x"); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestSelectFiguresNone(t *testing.T) {
	figs, err := selectFigures("none")
	if err != nil || len(figs) != 0 {
		t.Fatalf("none: %v, %v", figs, err)
	}
}

func TestWorkersFor(t *testing.T) {
	if got := workersFor(8); got != 8 {
		t.Fatalf("workersFor(8) = %d", got)
	}
	if got := workersFor(0); got < 1 {
		t.Fatalf("workersFor(0) = %d", got)
	}
}

func TestBuildOpenOptions(t *testing.T) {
	oopts, err := buildOpenOptions("poisson", "", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if oopts.Arrival != serve.Poisson || oopts.Lambdas != nil {
		t.Fatalf("defaults not preserved: %+v", oopts)
	}
	oopts, err = buildOpenOptions("bursty", "100, 250.5,800", 3, 500, 32)
	if err != nil {
		t.Fatal(err)
	}
	if oopts.Arrival != serve.Bursty || oopts.Tenants != 3 ||
		oopts.SLOms != 500 || oopts.MaxInService != 32 {
		t.Fatalf("overrides not applied: %+v", oopts)
	}
	want := []float64{100, 250.5, 800}
	if len(oopts.Lambdas) != 3 || oopts.Lambdas[0] != want[0] ||
		oopts.Lambdas[1] != want[1] || oopts.Lambdas[2] != want[2] {
		t.Fatalf("lambdas = %v, want %v", oopts.Lambdas, want)
	}
	if _, err := buildOpenOptions("diurnal", "", 0, 0, 0); err != nil {
		t.Fatalf("diurnal rejected: %v", err)
	}
}

func TestBuildOpenOptionsErrors(t *testing.T) {
	cases := []struct {
		name             string
		arrival, lambdas string
		tenants          int
		sloMS            float64
		governor         int
	}{
		{"unknown arrival", "lognormal", "", 0, 0, 0},
		{"bad lambda", "poisson", "100,fast", 0, 0, 0},
		{"zero lambda", "poisson", "0", 0, 0, 0},
		{"negative lambda", "poisson", "-5", 0, 0, 0},
		{"negative tenants", "poisson", "", -1, 0, 0},
		{"negative slo", "poisson", "", 0, -1, 0},
		{"negative governor", "poisson", "", 0, 0, -1},
	}
	for _, c := range cases {
		if _, err := buildOpenOptions(c.arrival, c.lambdas, c.tenants, c.sloMS, c.governor); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestCampaignMode(t *testing.T) {
	cases := []struct {
		name                                   string
		open, elastic, share, faults, faultFlg bool
		want                                   string
		wantErr                                bool
	}{
		{name: "closed", want: ""},
		{name: "closed with fault flags", faultFlg: true, want: ""},
		{name: "open", open: true, want: "open"},
		{name: "open with fault flags", open: true, faultFlg: true, want: "open"},
		{name: "elastic", elastic: true, want: "elastic"},
		{name: "share", share: true, want: "share"},
		{name: "faults", faults: true, want: "faults"},
		{name: "faults with fault flags", faults: true, faultFlg: true, want: "faults"},
		{name: "open and faults", open: true, faults: true, wantErr: true},
		{name: "open and elastic", open: true, elastic: true, wantErr: true},
		{name: "open and share", open: true, share: true, wantErr: true},
		{name: "elastic and share", elastic: true, share: true, wantErr: true},
		{name: "elastic and faults", elastic: true, faults: true, wantErr: true},
		{name: "share and faults", share: true, faults: true, wantErr: true},
		{name: "share with fault flags", share: true, faultFlg: true, wantErr: true},
		{name: "all four", open: true, elastic: true, share: true, faults: true, wantErr: true},
	}
	for _, c := range cases {
		got, err := campaignMode(c.open, c.elastic, c.share, c.faults, c.faultFlg)
		if c.wantErr {
			if err == nil || !strings.Contains(err.Error(), "one campaign mode per run") {
				t.Errorf("%s: err = %v, want a one-campaign-mode error", c.name, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("%s: got (%q, %v), want %q", c.name, got, err, c.want)
		}
	}
}
