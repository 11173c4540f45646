package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallRun runs a workload's scaled-down configuration once, untraced or
// traced, in this process.
func smallRun(t *testing.T, name string, traced bool) (spec, repResult, string) {
	t.Helper()
	s, err := newSpec(name, defaultSeeds[name], true)
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	if traced {
		out = filepath.Join(t.TempDir(), "spans.jsonl")
	}
	res, text, err := runRep(s, traced, "..", out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Problems) > 0 {
		t.Fatalf("%s traced=%v: output check failed: %v", name, traced, res.Problems)
	}
	if traced {
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var sp span
		first := bytes.SplitN(raw, []byte("\n"), 2)[0]
		if err := json.Unmarshal(first, &sp); err != nil || sp.Name != spanCampaign || sp.End <= sp.Start {
			t.Fatalf("first span %s (%v), want a closed %q span", first, err, spanCampaign)
		}
	}
	return s, res, text
}

// TestSmallWorkloadsReportEveryMetric runs each workload scaled down, with
// tracing off and on, and checks that the report names every metric with
// its unit and that the traced re-implementation renders the same tables
// as the campaign entry point.
func TestSmallWorkloadsReportEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			s, plain, plainText := smallRun(t, name, false)
			_, traced, tracedText := smallRun(t, name, true)
			if plainText != tracedText {
				t.Fatalf("traced campaign rendered different tables:\n%s\nwant:\n%s", tracedText, plainText)
			}
			for _, trace := range []bool{false, true} {
				sum := &summary{spec: s, trace: trace, correct: true}
				sum.add(plain)
				sum.childTimes = append(sum.childTimes, 1)
				if trace {
					sum.add(traced)
					sum.childTimes = append(sum.childTimes, 1)
				}
				sum.aggregate()
				var buf bytes.Buffer
				sum.print(&buf)
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var result struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				if !result.Correct || result.Failed != 0 || result.Attempted < 1 {
					t.Fatalf("result %+v, want correct with no failures", result)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				text := strings.Join(lines[:len(lines)-1], "\n")
				for _, d := range append(defs, metricDef{name: "failed_frac", unit: "frac"}) {
					if !strings.Contains(text, d.name+" ") || !strings.Contains(text, " "+d.unit) {
						t.Errorf("trace=%v: report lacks %s [%s]", trace, d.name, d.unit)
					}
					if _, ok := sum.metrics[d.name]; !ok && d.name != "failed_frac" {
						t.Errorf("trace=%v: %s not measured", trace, d.name)
					}
					got, ok := result.Metrics[d.name]
					if ok != d.report || (ok && got.Unit != d.unit) {
						t.Errorf("trace=%v: JSON metric %s = %+v (present %v), want present %v with unit %s",
							trace, d.name, got, ok, d.report, d.unit)
					}
				}
			}
			if traced.Metrics["gamma.run_s.n"] < 1 || traced.Metrics["gamma.build_s.sum"] <= 0 {
				t.Errorf("traced run recorded no machine runs: %v", traced.Metrics)
			}
		})
	}
}

// TestPaperReferenceRejectsPerturbedTable checks the paper-11a comparison
// against the committed results: the committed figure-11a slice passes,
// and a one-digit change in any compared line fails.
func TestPaperReferenceRejectsPerturbedTable(t *testing.T) {
	raw, err := os.ReadFile("../paper_scale_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := extract11a(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	rendered := "Figure 11a: Moderate-Low Query Mix (low correlation) — throughput (queries/second)\n" +
		strings.Join(ref.summary, "  ") + "\n\n  " + ref.note + "\nFigure 11a detail\n"
	for _, row := range ref.detail {
		rendered += strings.Join(append(row, "1.09"), "  ") + "\n"
	}
	if err := checkPaperReference(rendered, ".."); err != nil {
		t.Fatalf("committed slice rejected: %v", err)
	}
	for _, cell := range []string{ref.summary[1], "634 126", ref.detail[2][4]} {
		bad := strings.Replace(rendered, cell, perturb(cell), 1)
		if bad == rendered {
			t.Fatalf("cell %q not found", cell)
		}
		if checkPaperReference(bad, "..") == nil {
			t.Errorf("perturbed cell %q -> %q accepted", cell, perturb(cell))
		}
	}
}

// TestOutputCheckRejectsPerturbedTable perturbs one table cell of a real
// (scaled-down) rendering and one result behind each invariant.
func TestOutputCheckRejectsPerturbedTable(t *testing.T) {
	s, err := newSpec("open-elastic", 7, true)
	if err != nil {
		t.Fatal(err)
	}
	o := &outcome{}
	res, text, err := runRep(s, false, "..", "")
	if err != nil || len(res.Problems) > 0 {
		t.Fatal(err, res.Problems)
	}
	if err := checkDigest(text, res.Digest); err != nil {
		t.Fatal(err)
	}
	i := strings.Index(text, "\nmagic ") + 1
	row := text[i : i+strings.IndexByte(text[i:], '\n')]
	bad := strings.Replace(text, row, perturb(row), 1)
	if checkDigest(bad, res.Digest) == nil {
		t.Error("perturbed elastic table accepted")
	}

	// Invariants, on results the check sees: a failed query, a missing
	// transition, an incomplete closed point.
	tr := newTracer()
	if o.elastic, err = s.tracedElastic(tr, 0); err != nil {
		t.Fatal(err)
	}
	if p := s.check(o, ".."); len(p) > 0 {
		t.Fatal(p)
	}
	pt := &o.elastic.Figures[0].Points[0]
	pt.Result.Serve.Outcomes.Failed = 1
	if len(s.check(o, "..")) == 0 {
		t.Error("failed query accepted")
	}
	pt.Result.Serve.Outcomes.Failed = 0
	pt.Result.Rebalance.Tasks = pt.Result.Rebalance.Tasks[:1]
	if len(s.check(o, "..")) == 0 {
		t.Error("missing transition accepted")
	}

	c, err := newSpec("paper-11a", 3, true)
	if err != nil {
		t.Fatal(err)
	}
	o = &outcome{}
	if o.closed, err = c.tracedClosed(newTracer(), 0); err != nil {
		t.Fatal(err)
	}
	if p := c.check(o, ".."); len(p) > 0 {
		t.Fatal(p)
	}
	o.closed.Figures[0].Points[1].Result.Completed--
	if len(c.check(o, "..")) == 0 {
		t.Error("incomplete closed point accepted")
	}
}

// TestSelfTimes checks self time against overlapping children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanPool, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanJob, Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: spanJob, Start: 40, End: 80},
		{ID: 4, Parent: 2, Name: spanRun, Start: 20, End: 50},
	}
	got := selfTimes(spans)
	// pool: 100 - [10,80] = 30; jobs: 50-30 + 40 = 60; run: 30.
	if h, r := got["harness"]*1e9, got["gamma.run"]*1e9; h < 89.5 || h > 90.5 || r < 29.5 || r > 30.5 {
		t.Fatalf("self times %v, want harness 90ns, gamma.run 30ns", got)
	}
}

// perturb changes the first digit of s.
func perturb(s string) string {
	for i, c := range s {
		if c >= '0' && c <= '9' {
			return s[:i] + string('0'+(c-'0'+1)%10) + s[i+1:]
		}
	}
	return s + "x"
}

// TestBenchmarkJSONMatchesReport keeps BENCHMARK.json and the metrics the
// final JSON line carries in step: same workloads, names, units.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	for _, c := range []struct {
		declared []metric
		defs     []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		var want []metric
		for _, d := range c.defs {
			if d.report {
				want = append(want, metric{d.name, d.unit})
			}
		}
		if len(c.declared) != len(want) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the report carries %d", len(c.declared), len(want))
		}
		for i := range want {
			if c.declared[i] != want[i] {
				t.Errorf("metric %d: BENCHMARK.json %+v, report %+v", i, c.declared[i], want[i])
			}
		}
	}
}
