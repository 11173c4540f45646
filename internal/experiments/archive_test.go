package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/gamma"
)

func sampleArchive(qps float64) Archive {
	return Archive{
		Label:   "test",
		Options: QuickScale(),
		Figures: []FigureArchive{{
			ID: "8a", Title: "Low-Low", Correlation: "low",
			Points: []Point{
				{Strategy: "magic", MPL: 64, Result: gamma.RunResult{ThroughputQPS: qps}},
				{Strategy: "range", MPL: 64, Result: gamma.RunResult{ThroughputQPS: 400}},
			},
		}},
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	a := sampleArchive(600)
	var buf bytes.Buffer
	if err := WriteArchive(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "test" || len(got.Figures) != 1 || len(got.Figures[0].Points) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Figures[0].Points[0].Result.ThroughputQPS != 600 {
		t.Fatal("throughput lost")
	}
}

func TestReadArchiveRejectsGarbage(t *testing.T) {
	if _, err := ReadArchive(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCompareArchivesNoDiff(t *testing.T) {
	if diffs := CompareArchives(sampleArchive(600), sampleArchive(612), 0.05); len(diffs) != 0 {
		t.Fatalf("2%% drift flagged: %v", diffs)
	}
}

// A zero tolerance is an exact-equality gate: the smallest drift is
// flagged, and identical archives still compare clean.
func TestCompareArchivesZeroToleranceIsExact(t *testing.T) {
	diffs := CompareArchives(sampleArchive(600), sampleArchive(601), 0)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "magic") {
		t.Fatalf("600 -> 601 q/s at tolerance 0: diffs = %v, want the magic point", diffs)
	}
	if diffs := CompareArchives(sampleArchive(600), sampleArchive(600), 0); len(diffs) != 0 {
		t.Fatalf("identical archives at tolerance 0: diffs = %v", diffs)
	}
}

func TestCompareArchivesFlagsRegression(t *testing.T) {
	diffs := CompareArchives(sampleArchive(600), sampleArchive(480), 0.05)
	if len(diffs) != 1 {
		t.Fatalf("diffs = %v", diffs)
	}
	if !strings.Contains(diffs[0], "magic") || !strings.Contains(diffs[0], "-20.0%") {
		t.Fatalf("diff = %q", diffs[0])
	}
}

func TestCompareArchivesStructuralChanges(t *testing.T) {
	baseline := sampleArchive(600)
	current := sampleArchive(600)
	current.Figures[0].Points = append(current.Figures[0].Points,
		Point{Strategy: "berd", MPL: 64, Result: gamma.RunResult{ThroughputQPS: 300}})
	baseline.Figures[0].Points = append(baseline.Figures[0].Points,
		Point{Strategy: "hash", MPL: 64, Result: gamma.RunResult{ThroughputQPS: 100}})
	diffs := CompareArchives(baseline, current, 0.05)
	joined := strings.Join(diffs, "\n")
	if !strings.Contains(joined, "berd") || !strings.Contains(joined, "new point") {
		t.Fatalf("new point not reported: %v", diffs)
	}
	if !strings.Contains(joined, "hash") || !strings.Contains(joined, "missing") {
		t.Fatalf("missing point not reported: %v", diffs)
	}
}

// An archive written from a real quick run must survive the round trip with
// per-class stats intact.
func TestArchiveFromRealRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	fig, _ := FigureByID("8a")
	opts := QuickScale()
	opts.MPLs = []int{8}
	opts.MeasureQueries = 120
	opts.WarmupQueries = 30
	fr, err := Run(fig, opts)
	if err != nil {
		t.Fatal(err)
	}
	a := Archive{Options: opts, Figures: []FigureArchive{fr.Archive()}}
	var buf bytes.Buffer
	if err := WriteArchive(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p := got.Figures[0].Points[0]
	if len(p.Result.PerClass) != 2 {
		t.Fatalf("per-class stats lost: %+v", p.Result)
	}
	if diffs := CompareArchives(a, got, 0.01); len(diffs) != 0 {
		t.Fatalf("self-comparison reported diffs: %v", diffs)
	}
}
