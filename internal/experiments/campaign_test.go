package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// campaignTestOptions is a reduced scale that keeps the determinism tests
// fast while still exercising warmup, measurement and every strategy.
func campaignTestOptions() Options {
	return Options{
		Cardinality:    5000,
		Processors:     32,
		MPLs:           []int{1, 8},
		WarmupQueries:  20,
		MeasureQueries: 100,
		Seed:           1,
	}
}

func encodeArchive(t *testing.T, a Archive) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteArchive(&buf, a); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The acceptance bar of the parallel harness: a campaign run with one
// worker and with four workers must produce byte-identical archive
// encodings — same points in the same order with the same measurements.
func TestCampaignByteIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	fig, err := FigureByID("8a")
	if err != nil {
		t.Fatal(err)
	}
	figs := []Figure{fig}
	opts := campaignTestOptions()

	serial, err := RunCampaign(figs, opts, CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunCampaign(figs, opts, CampaignOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	a := encodeArchive(t, serial.Archive("campaign", opts))
	b := encodeArchive(t, parallel.Archive("campaign", opts))
	if !bytes.Equal(a, b) {
		t.Fatalf("workers=1 and workers=4 archives differ:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}

	// The legacy serial entry point is a workers=1 campaign and must agree
	// point for point too.
	fr, err := Run(fig, opts)
	if err != nil {
		t.Fatal(err)
	}
	single := Archive{Label: "campaign", Options: opts, Figures: []FigureArchive{fr.Archive()}}
	if got := encodeArchive(t, single); !bytes.Equal(a, got) {
		t.Fatalf("experiments.Run disagrees with the campaign path:\n%s\nvs\n%s", a, got)
	}

	if serial.Manifest.Jobs != len(fig.Strategies)*len(opts.MPLs) {
		t.Fatalf("manifest jobs = %d", serial.Manifest.Jobs)
	}
	if serial.Manifest.Workers != 1 || parallel.Manifest.Workers != 4 {
		t.Fatalf("manifest workers = %d / %d", serial.Manifest.Workers, parallel.Manifest.Workers)
	}
}

// A job that blows its wall-clock budget must yield a failure record
// carrying the job identity and seed — and the campaign must return its
// remaining results rather than crash.
func TestCampaignTimeoutYieldsFailureRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	fig, err := FigureByID("8a")
	if err != nil {
		t.Fatal(err)
	}
	fig.Strategies = []string{StrategyRange}
	opts := campaignTestOptions()
	opts.MPLs = []int{8}

	c, err := RunCampaign([]Figure{fig}, opts, CampaignOptions{
		Workers:    2,
		JobTimeout: time.Nanosecond, // no simulation finishes in 1ns
	})
	if err == nil {
		t.Fatal("campaign with all jobs timed out returned nil error")
	}
	if len(c.Figures) != 1 || len(c.Figures[0].Points) != 0 {
		t.Fatalf("timed-out campaign produced points: %+v", c.Figures)
	}
	fails := c.Manifest.Failures()
	if len(fails) != 1 {
		t.Fatalf("failures = %+v", fails)
	}
	if !fails[0].TimedOut || fails[0].ID != "fig8a/range/mpl8" || fails[0].Seed != 1 {
		t.Fatalf("failure record incomplete: %+v", fails[0])
	}
}

// The scale sweep goes through the same pool; serial and parallel
// executions must agree point for point.
func TestScaleSweepParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	sweep := DefaultScaleSweep()
	sweep.Processors = []int{8, 16}
	sweep.Strategies = []string{StrategyMAGIC, StrategyRange}
	opts := campaignTestOptions()

	serial, _, err := RunScaleSweep(sweep, opts, CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, manifest, err := RunScaleSweep(sweep, opts, CampaignOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Points) != len(parallel.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(serial.Points), len(parallel.Points))
	}
	for i := range serial.Points {
		s, p := serial.Points[i], parallel.Points[i]
		if s.Strategy != p.Strategy || s.Processors != p.Processors ||
			s.Result.ThroughputQPS != p.Result.ThroughputQPS {
			t.Fatalf("point %d differs: %+v vs %+v", i, s, p)
		}
	}
	if manifest.Jobs != 4 {
		t.Fatalf("manifest jobs = %d", manifest.Jobs)
	}
	for _, r := range manifest.Reports {
		if !strings.HasPrefix(r.ID, "scaleout/") {
			t.Fatalf("job id = %q", r.ID)
		}
	}
}

// Seed 0 must be usable as an explicit seed (SeedSet), distinct from the
// unset default.
func TestSeedZeroExplicit(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Seed != 1 {
		t.Fatalf("unset seed defaulted to %d, want 1", o.Seed)
	}
	o = Options{Seed: 0, SeedSet: true}.withDefaults()
	if o.Seed != 0 {
		t.Fatalf("explicit seed 0 remapped to %d", o.Seed)
	}
	if cfg := ConfigFor(o); cfg.Seed != 0 {
		t.Fatalf("machine config seed = %d, want 0", cfg.Seed)
	}
}

// Explicit seed 0 must actually drive the run (and differ from seed 1).
func TestSeedZeroProducesDistinctRun(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	fig, err := FigureByID("8a")
	if err != nil {
		t.Fatal(err)
	}
	fig.Strategies = []string{StrategyRange}
	opts := campaignTestOptions()
	opts.MPLs = []int{8}

	opts.Seed, opts.SeedSet = 0, true
	zero, err := Run(fig, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed, opts.SeedSet = 1, true
	one, err := Run(fig, opts)
	if err != nil {
		t.Fatal(err)
	}
	z, _ := zero.Throughput(StrategyRange, 8)
	o1, _ := one.Throughput(StrategyRange, 8)
	if z <= 0 || o1 <= 0 {
		t.Fatalf("non-positive throughputs: %v %v", z, o1)
	}
	if z == o1 {
		t.Fatalf("seed 0 and seed 1 produced identical throughput %v — seed 0 likely remapped", z)
	}
}
