package experiments

import (
	"strings"
	"testing"
)

// TestRunSharingSavesReads runs the shared-scan campaign at quick scale on
// the Moderate-Low mix and checks the tentpole's acceptance bar: at MPL 8,
// at least one strategy reads >= 25% fewer disk pages per query with
// sharing on.
func TestRunSharingSavesReads(t *testing.T) {
	fig, err := FigureByID("11a")
	if err != nil {
		t.Fatal(err)
	}
	opts := QuickScale()
	opts.MPLs = []int{8}
	srs, manifest, err := RunSharing([]Figure{fig}, 0, opts, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sr := srs[0]
	if len(manifest.Reports) != 2*len(fig.Strategies) {
		t.Fatalf("manifest has %d jobs, want %d", len(manifest.Reports), 2*len(fig.Strategies))
	}
	if len(sr.Points) != len(fig.Strategies) {
		t.Fatalf("got %d points, want %d", len(sr.Points), len(fig.Strategies))
	}
	for _, p := range sr.Points {
		if p.Off.Sharing != nil {
			t.Errorf("%s: off run carried sharing stats", p.Strategy)
		}
		if p.On.Sharing == nil || p.On.Sharing.Batches == 0 {
			t.Errorf("%s: on run has no batching evidence: %+v", p.Strategy, p.On.Sharing)
		}
	}
	saved, best := sr.MaxSaved()
	t.Logf("best saving: %.1f%% (%s @ MPL %d)", 100*saved, best.Strategy, best.MPL)
	for _, line := range sr.Summary() {
		t.Log(line)
	}
	if saved < 0.25 {
		t.Errorf("best disk-read saving %.1f%% < 25%% acceptance bar", 100*saved)
	}
}

// TestRunSharingRejectsFaults: the campaign refuses fault options up front
// rather than failing deep inside gamma.Build.
func TestRunSharingRejectsFaults(t *testing.T) {
	fig, err := FigureByID("11a")
	if err != nil {
		t.Fatal(err)
	}
	opts := QuickScale()
	opts.ArmFaults(KillSpec(1, opts.Processors), true)
	if _, _, err := RunSharing([]Figure{fig}, 0, opts, CampaignOptions{}); err == nil ||
		!strings.Contains(err.Error(), "one campaign mode per run") {
		t.Fatalf("RunSharing with faults err = %v, want one-campaign-mode error", err)
	}
}

// TestSharingSummaryShape pins the greppable summary-line format CI's smoke
// job matches against.
func TestSharingSummaryShape(t *testing.T) {
	sr := SharingResult{Figure: Figure{ID: "11a"}}
	sr.Points = append(sr.Points, SharingPoint{Strategy: "range", MPL: 8})
	lines := sr.Summary()
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "sharing fig11a/range mpl=8: reads/qry ") {
		t.Fatalf("summary shape changed: %q", lines)
	}
}
