package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/serve"
	"repro/internal/sim"
)

var updateCampaignsGolden = flag.Bool("update-campaigns", false,
	"rewrite testdata/campaign_modes.golden")

// goldenModeOptions is the tiny seed-7 scale every campaign mode of the
// golden runs at: big enough to exercise warm-up, measurement and every
// strategy, small enough to run each mode twice in a few seconds.
func goldenModeOptions() Options {
	return Options{
		Cardinality:    2000,
		Processors:     8,
		MPLs:           []int{1, 4},
		WarmupQueries:  10,
		MeasureQueries: 40,
		Seed:           7,
	}
}

func goldenFigures(t *testing.T, ids ...string) []Figure {
	t.Helper()
	var figs []Figure
	for _, id := range ids {
		fig, err := FigureByID(id)
		if err != nil {
			t.Fatal(err)
		}
		figs = append(figs, fig)
	}
	return figs
}

// campaignModes renders each campaign mode's tables and summary lines, as
// declusterbench prints them, for one worker count.
func campaignModes(t *testing.T) []struct {
	name string
	run  func(copts CampaignOptions) (string, error)
} {
	return []struct {
		name string
		run  func(copts CampaignOptions) (string, error)
	}{
		{"closed", func(copts CampaignOptions) (string, error) {
			c, err := RunCampaign(goldenFigures(t, "8a", "9"), goldenModeOptions(), copts)
			var b strings.Builder
			for _, fr := range c.Figures {
				b.WriteString(fr.Table().String() + "\n")
				for _, n := range fr.Notes {
					b.WriteString("  " + n + "\n")
				}
				b.WriteString(fr.DetailTable().String() + "\n")
			}
			return b.String(), err
		}},
		{"open", func(copts CampaignOptions) (string, error) {
			oopts := OpenOptions{Arrival: serve.Poisson, Lambdas: []float64{100, 400}, Tenants: 2}
			c, err := RunOpenSystem(goldenFigures(t, "8a"), goldenModeOptions(), oopts, copts)
			var b strings.Builder
			for _, fr := range c.Figures {
				b.WriteString(fr.Table().String() + "\n")
				for _, n := range fr.Notes {
					b.WriteString("  " + n + "\n")
				}
				b.WriteString(fr.DetailTable().String() + "\n")
				b.WriteString(fr.SummaryTable().String() + "\n")
			}
			return b.String(), err
		}},
		{"elastic", func(copts CampaignOptions) (string, error) {
			opts := goldenModeOptions()
			opts.Cardinality, opts.Processors = 1000, 4
			opts.WarmupQueries, opts.MeasureQueries = 5, 150
			eopts := ElasticOptions{
				Arrival: serve.Poisson,
				Lambda:  100,
				JoinAt:  200 * sim.Millisecond,
				LeaveAt: 900 * sim.Millisecond,
			}
			c, err := RunElastic(goldenFigures(t, "8a"), opts, eopts, copts)
			var b strings.Builder
			for _, fr := range c.Figures {
				b.WriteString(fr.Table().String() + "\n")
				for _, n := range fr.Notes {
					b.WriteString("  " + n + "\n")
				}
				for _, p := range fr.Points {
					fmt.Fprintf(&b, "fig%s/%s n=%d %s\n", fr.Figure.ID, p.Strategy, p.Size, p.Summary)
				}
			}
			return b.String(), err
		}},
		{"degraded", func(copts CampaignOptions) (string, error) {
			opts := goldenModeOptions()
			opts.MPLs = []int{4}
			drs, _, err := RunDegraded(goldenFigures(t, "8a", "8b"), []int{0, 1, 2}, opts, copts)
			var b strings.Builder
			for _, dr := range drs {
				b.WriteString(dr.Table().String() + "\n")
				fmt.Fprintf(&b, "fault outcomes: %s\n", dr.Outcomes())
			}
			return b.String(), err
		}},
		{"sharing", func(copts CampaignOptions) (string, error) {
			opts := goldenModeOptions()
			opts.MPLs = []int{4}
			srs, _, err := RunSharing(goldenFigures(t, "11a", "8a"), 0, opts, copts)
			var b strings.Builder
			for _, sr := range srs {
				b.WriteString(sr.Table().String() + "\n")
				for _, line := range sr.Summary() {
					b.WriteString(line + "\n")
				}
				saved, best := sr.MaxSaved()
				fmt.Fprintf(&b, "sharing best: %.1f%% disk reads saved (%s fig%s MPL %d)\n",
					100*saved, best.Strategy, sr.Figure.ID, best.MPL)
			}
			return b.String(), err
		}},
		{"scaleout", func(copts CampaignOptions) (string, error) {
			sweep := DefaultScaleSweep()
			sweep.Processors = []int{4, 8}
			res, _, err := RunScaleSweep(sweep, goldenModeOptions(), copts)
			return res.Table().String() + "\n", err
		}},
	}
}

// TestCampaignModesGolden pins the rendered output of every campaign mode
// at a tiny scale against testdata/campaign_modes.golden, and requires a
// one-worker and a four-worker run of each mode to print the same bytes.
// Regenerate with
//
//	go test ./internal/experiments -run TestCampaignModesGolden -update-campaigns
//
// only when a change to campaign output is intended.
func TestCampaignModesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every campaign mode twice")
	}
	var got strings.Builder
	for _, mode := range campaignModes(t) {
		var outs [2]string
		for i, workers := range []int{1, 4} {
			out, err := mode.run(CampaignOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s, %d workers: %v", mode.name, workers, err)
			}
			outs[i] = out
		}
		if outs[0] != outs[1] {
			t.Errorf("%s: 1 and 4 workers differ:\n%s\nvs\n%s", mode.name, outs[0], outs[1])
		}
		fmt.Fprintf(&got, "== %s ==\n%s", mode.name, outs[0])
	}
	path := filepath.Join("testdata", "campaign_modes.golden")
	if *updateCampaignsGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-campaigns): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("campaign output drifted from %s:\ngot:\n%swant:\n%s", path, got.String(), want)
	}
}

// Job IDs are the manifest's handle for replaying one job, so a campaign
// over several figures must still give every job its own ID.
func TestCampaignJobIDsUnique(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two small campaigns")
	}
	opts := goldenModeOptions()
	opts.MPLs = []int{1}
	figs := goldenFigures(t, "8a", "8b")
	_, degraded, err := RunDegraded(figs, []int{0, 1}, opts, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, sharing, err := RunSharing(figs, 0, opts, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, reports := range map[string][]harness.JobReport{
		"degraded": degraded.Reports, "sharing": sharing.Reports,
	} {
		seen := map[string]bool{}
		for _, r := range reports {
			if seen[r.ID] {
				t.Errorf("%s: duplicate job ID %q", name, r.ID)
			}
			seen[r.ID] = true
			if !strings.HasPrefix(r.ID, "fig8a/") && !strings.HasPrefix(r.ID, "fig8b/") {
				t.Errorf("%s: job ID %q is not figure-qualified", name, r.ID)
			}
		}
		if want := 2 * 3 * 2; len(seen) != want {
			t.Errorf("%s: %d distinct job IDs, want %d", name, len(seen), want)
		}
	}
}
