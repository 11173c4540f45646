package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"repro/internal/experiments"
	"repro/internal/rebalance"
	"repro/internal/serve"
	"repro/internal/sim"
)

// workers is the harness pool size every workload runs with: the 2-core
// host the workloads were sized on.
const workers = 2

// spec is one workload's campaign: the figures, the base options and, for
// the elastic workload, the membership schedule under open load.
type spec struct {
	Name        string
	DefaultSeed int64
	Seed        int64
	Small       bool // scaled-down configuration for the benchmark's tests
	Figures     []experiments.Figure
	Opts        experiments.Options
	Elastic     *experiments.ElasticOptions
}

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"paper-11a", "quick-all", "open-elastic"}

var defaultSeeds = map[string]int64{"paper-11a": 1, "quick-all": 1, "open-elastic": 7}

// newSpec builds a workload at a seed; small selects the scaled-down
// configuration the tests run.
func newSpec(name string, seed int64, small bool) (spec, error) {
	def, ok := defaultSeeds[name]
	if !ok {
		return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	s := spec{Name: name, DefaultSeed: def, Seed: seed, Small: small}
	switch name {
	case "paper-11a":
		// Figure 11a at paper scale, MPL 16 only: MAGIC placement on the
		// 634x126 directory dominates.
		fig, err := experiments.FigureByID("11a")
		if err != nil {
			return spec{}, err
		}
		s.Figures = []experiments.Figure{fig}
		s.Opts = experiments.PaperScale()
		s.Opts.MPLs = []int{16}
		if small {
			s.Opts.Cardinality, s.Opts.Processors = 4000, 8
			s.Opts.WarmupQueries, s.Opts.MeasureQueries = 10, 60
		}
	case "quick-all":
		// All nine figures at quick scale: ~104 machine builds and runs.
		s.Figures = experiments.Figures()
		s.Opts = experiments.QuickScale()
		if small {
			s.Opts.Cardinality, s.Opts.Processors = 2000, 8
			s.Opts.MPLs = []int{1, 8}
			s.Opts.WarmupQueries, s.Opts.MeasureQueries = 10, 40
		}
	case "open-elastic":
		// Figure 8a under open Poisson load with a join and a decommission.
		fig, err := experiments.FigureByID("8a")
		if err != nil {
			return spec{}, err
		}
		s.Figures = []experiments.Figure{fig}
		s.Opts = experiments.Options{
			Cardinality:    4000,
			Processors:     4,
			MPLs:           []int{1},
			WarmupQueries:  20,
			MeasureQueries: 20000,
		}
		// Every field is explicit (the campaign's own defaults spelled
		// out) so the traced re-implementation renders the same title.
		s.Elastic = &experiments.ElasticOptions{
			Arrival:      serve.Poisson,
			Lambda:       100,
			Sizes:        []int{4},
			JoinAt:       200 * sim.Millisecond,
			LeaveAt:      900 * sim.Millisecond,
			LeaveNode:    1,
			Tenants:      4,
			SLOms:        1000,
			MaxInService: 64,
		}
		if small {
			s.Opts.Cardinality, s.Opts.WarmupQueries, s.Opts.MeasureQueries = 1000, 5, 300
		}
	}
	s.Opts.Seed, s.Opts.SeedSet = seed, true
	return s, nil
}

// events is the elastic workload's membership schedule.
func (s spec) events() []rebalance.Event {
	e := s.Elastic
	return []rebalance.Event{
		{At: e.JoinAt, Kind: rebalance.Join},
		{At: e.LeaveAt, Kind: rebalance.Decommission, Node: e.LeaveNode},
	}
}

// referenced reports whether the committed reference outputs apply: full
// scale at the workload's default seed.
func (s spec) referenced() bool { return !s.Small && s.Seed == s.DefaultSeed }

// outcome is one campaign's results, whichever path produced them.
type outcome struct {
	closed  experiments.Campaign
	elastic experiments.ElasticCampaign
	text    string // rendered tables, notes and rebalance summaries
	err     error
}

// render writes the campaign's tables the way declusterbench prints them
// (closed figures with their detail tables) and serializes the closed
// archive, the reporting layer's other entry point.
func (s spec) render(o *outcome) error {
	var b strings.Builder
	if s.Elastic != nil {
		for _, fr := range o.elastic.Figures {
			fmt.Fprintln(&b, fr.Table().String())
			for _, n := range fr.Notes {
				fmt.Fprintf(&b, "  %s\n", n)
			}
			for _, p := range fr.Points {
				if p.Summary != "" {
					fmt.Fprintf(&b, "fig%s/%s n=%d %s\n", fr.Figure.ID, p.Strategy, p.Size, p.Summary)
				}
			}
			fmt.Fprintln(&b)
		}
		o.text = b.String()
		return nil
	}
	archive := experiments.Archive{Label: s.Name, Options: s.Opts}
	for _, fr := range o.closed.Figures {
		archive.Figures = append(archive.Figures, fr.Archive())
		fmt.Fprintln(&b, fr.Table().String())
		for _, n := range fr.Notes {
			fmt.Fprintf(&b, "  %s\n", n)
		}
		fmt.Fprintln(&b, fr.DetailTable().String())
		fmt.Fprintln(&b)
	}
	o.text = b.String()
	return experiments.WriteArchive(io.Discard, archive)
}

// digest is the SHA-256 of rendered campaign text.
func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// simStats are the simulated (host-independent) per-layer figures of a
// campaign: identical for a given seed whatever the host does.
type simStats struct {
	SimS            float64 // simulated seconds of every measurement window
	Queries         float64 // measured query completions
	Arrivals        float64 // open-system arrivals
	DiskReadsPerQry float64 // closed runs, completion-weighted
	BufferHitRate   float64 // closed runs, completion-weighted
	PagesMoved      float64
	Tasks           float64
	TTRms           float64 // slowest transition's plan-to-cutover, summed over points
}

func (s spec) simStats(o *outcome) simStats {
	var st simStats
	var closedQ float64
	for _, fr := range o.closed.Figures {
		for _, p := range fr.Points {
			r := p.Result
			q := float64(r.Completed)
			st.SimS += r.ElapsedSim.Seconds()
			closedQ += q
			st.DiskReadsPerQry += r.DiskReadsPerQry * q
			st.BufferHitRate += r.BufferHitRate * q
		}
	}
	if closedQ > 0 {
		st.DiskReadsPerQry /= closedQ
		st.BufferHitRate /= closedQ
	}
	st.Queries = closedQ
	for _, fr := range o.elastic.Figures {
		for _, p := range fr.Points {
			sv := p.Result.Serve
			st.SimS += sv.ElapsedSeconds()
			st.Queries += float64(sv.SLO.Completed)
			st.Arrivals += float64(sv.SLO.Arrivals)
			st.PagesMoved += float64(p.PagesMoved)
			st.TTRms += float64(p.TimeToRebalance) / float64(sim.Millisecond)
			if rep := p.Result.Rebalance; rep != nil {
				st.Tasks += float64(len(rep.Tasks))
			}
		}
	}
	return st
}

// check verifies a campaign's output: invariants at every seed, and the
// committed references at the default seed. It returns the problems found.
func (s spec) check(o *outcome, root string) []string {
	var probs []string
	if o.err != nil {
		probs = append(probs, "campaign error: "+o.err.Error())
	}
	m := o.closed.Manifest
	if s.Elastic != nil {
		m = o.elastic.Manifest
	}
	if m.Failed > 0 {
		probs = append(probs, fmt.Sprintf("%d of %d jobs failed", m.Failed, m.Jobs))
	}
	if s.Elastic == nil {
		probs = append(probs, s.checkClosed(o.closed)...)
	} else {
		probs = append(probs, s.checkElastic(o.elastic)...)
	}
	if s.referenced() {
		var err error
		if s.Name == "paper-11a" {
			err = checkPaperReference(o.text, root)
		} else {
			err = checkDigest(o.text, referenceDigests[s.Name])
		}
		if err != nil {
			probs = append(probs, err.Error())
		}
	}
	return probs
}

func (s spec) checkClosed(c experiments.Campaign) []string {
	var probs []string
	if len(c.Figures) != len(s.Figures) {
		probs = append(probs, fmt.Sprintf("%d figures, want %d", len(c.Figures), len(s.Figures)))
	}
	for _, fr := range c.Figures {
		want := len(fr.Figure.Strategies) * len(s.Opts.MPLs)
		if len(fr.Points) != want {
			probs = append(probs, fmt.Sprintf("figure %s: %d points, want %d", fr.Figure.ID, len(fr.Points), want))
		}
		for _, p := range fr.Points {
			if p.Result.Completed != s.Opts.MeasureQueries {
				probs = append(probs, fmt.Sprintf("figure %s %s MPL %d: %d measured queries completed, want %d",
					fr.Figure.ID, p.Strategy, p.MPL, p.Result.Completed, s.Opts.MeasureQueries))
			}
		}
	}
	return probs
}

func (s spec) checkElastic(c experiments.ElasticCampaign) []string {
	var probs []string
	want := len(s.events())
	n := 0
	for _, fr := range c.Figures {
		for _, p := range fr.Points {
			n++
			rep := p.Result.Rebalance
			if rep == nil {
				probs = append(probs, fmt.Sprintf("figure %s %s: no rebalance report", fr.Figure.ID, p.Strategy))
				continue
			}
			errs := rep.Errors
			for _, t := range rep.Tasks {
				if t.Err != "" {
					errs++
				}
			}
			if len(rep.Tasks) != want || errs != 0 {
				probs = append(probs, fmt.Sprintf("figure %s %s: tasks=%d errors=%d, want tasks=%d errors=0",
					fr.Figure.ID, p.Strategy, len(rep.Tasks), errs, want))
			}
			if f := p.Result.Serve.Outcomes.Failed; f != 0 {
				probs = append(probs, fmt.Sprintf("figure %s %s: %d failed queries", fr.Figure.ID, p.Strategy, f))
			}
		}
	}
	wantPts := 0
	for _, f := range s.Figures {
		wantPts += len(f.Strategies) * len(s.Elastic.Sizes)
	}
	if n != wantPts {
		probs = append(probs, fmt.Sprintf("%d elastic points, want %d", n, wantPts))
	}
	return probs
}

// checkDigest compares rendered text against a stored digest.
func checkDigest(text, want string) error {
	if got := digest(text); got != want {
		return fmt.Errorf("rendered tables digest %s, want %s", got, want)
	}
	return nil
}
