package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
)

func TestKillSpec(t *testing.T) {
	if s := KillSpec(0, 8); s.Enabled() {
		t.Fatal("k=0 spec should inject nothing")
	}
	s := KillSpec(2, 8)
	if len(s.Events) != 2 {
		t.Fatalf("events = %v", s.Events)
	}
	if s.Events[0].Node != 0 || s.Events[1].Node != 4 {
		t.Fatalf("k=2 over 8 nodes should spread to {0, 4}, got %v", s.Events)
	}
	for _, ev := range s.Events {
		if ev.Kind != fault.DiskFail || ev.Dur != 0 {
			t.Fatalf("want permanent fail-stops, got %+v", ev)
		}
	}
	if err := s.Validate(8); err != nil {
		t.Fatal(err)
	}
}

// The degraded campaign must complete for every (strategy, k) cell with a
// healthy majority of queries, carry the fault events into the manifest,
// and be reproducible run to run.
func TestRunDegradedCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	fig, err := FigureByID("8a")
	if err != nil {
		t.Fatal(err)
	}
	opts := campaignTestOptions()
	opts.MPLs = []int{4}
	ks := []int{0, 1, 2}

	drs, manifest, err := RunDegraded([]Figure{fig}, ks, opts, CampaignOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	dr := drs[0]
	wantPoints := len(fig.Strategies) * len(ks) * len(opts.MPLs)
	if len(dr.Points) != wantPoints {
		t.Fatalf("points = %d, want %d", len(dr.Points), wantPoints)
	}
	for _, p := range dr.Points {
		if p.Result.Outcomes.Succeeded() == 0 {
			t.Fatalf("%s k=%d: no queries succeeded: %s", p.Strategy, p.K, p.Result.Outcomes)
		}
		if len(p.Result.FaultLog) != p.K {
			t.Fatalf("%s k=%d: fault log has %d records", p.Strategy, p.K, len(p.Result.FaultLog))
		}
		if p.Result.ThroughputQPS <= 0 {
			t.Fatalf("%s k=%d: throughput %g", p.Strategy, p.K, p.Result.ThroughputQPS)
		}
	}
	if dr.Outcomes().Succeeded() == 0 {
		t.Fatal("aggregate outcomes empty")
	}
	if !strings.Contains(dr.Outcomes().String(), "ok=") {
		t.Fatalf("outcome summary %q missing the CI grep format", dr.Outcomes().String())
	}

	// Fault events land in the manifest, aligned with job order.
	if manifest.Jobs != wantPoints {
		t.Fatalf("manifest jobs = %d", manifest.Jobs)
	}
	withFaults := 0
	for _, rep := range manifest.Reports {
		if rep.FaultEvents > 0 {
			withFaults++
		}
	}
	if wantFaulty := len(fig.Strategies) * 2; withFaults != wantFaulty {
		t.Fatalf("%d jobs report fault events, want %d (k=1 and k=2 per strategy)", withFaults, wantFaulty)
	}

	// Reproducibility: a second campaign with the same options agrees point
	// for point, fault logs included.
	drs2, _, err := RunDegraded([]Figure{fig}, ks, opts, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dr.Points, drs2[0].Points) {
		t.Fatal("degraded campaign is not reproducible across runs/worker counts")
	}
}
