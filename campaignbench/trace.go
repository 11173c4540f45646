package main

// The traced run re-implements the two campaign entry points the
// workloads use (experiments.RunCampaign and experiments.RunElastic) from
// their public building blocks, with a span around every call into a
// layer. Spans are recorded here, in the benchmark, never inside the
// program; the traced run passes the same output check as the untraced
// one, which proves the re-implementation reproduces the campaign.

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gamma"
	"repro/internal/harness"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Span names, one per layer boundary the benchmark times.
const (
	spanCampaign = "campaign"           // the whole campaign call
	spanGen      = "storage.gen"        // storage.GenerateWisconsin
	spanPlace    = "core.place"         // experiments.BuildPlacement
	spanRebuild  = "core.rebuild"       // gamma.ElasticSpec.Rebuild callback
	spanPool     = "harness.execute"    // harness.Execute
	spanJob      = "job"                // one harness job
	spanBuild    = "gamma.build"        // gamma.Build
	spanRun      = "gamma.run"          // Machine.Run
	spanServe    = "serve.run"          // Machine.RunServe
	spanReport   = "experiments.report" // Table and WriteArchive
)

// layerOf maps a span to the layer its self time is charged to.
var layerOf = map[string]string{
	spanCampaign: "experiments",
	spanReport:   "experiments",
	spanGen:      "storage",
	spanPlace:    "core",
	spanRebuild:  "core",
	spanPool:     "harness",
	spanJob:      "harness",
	spanBuild:    "gamma.build",
	spanRun:      "gamma.run",
	spanServe:    "gamma.run",
}

// span is one timed call. Spans of one harness job share the job ID as
// their trace ID; spans outside jobs use the workload name.
type span struct {
	Trace  string `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps finished spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
	// MAGIC construction counts over every placement the campaign built.
	magicSwaps, magicCells atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// place times one placement construction under a span named name and
// counts MAGIC's rebalance swaps and directory cells.
func (t *tracer) place(trace string, parent int64, name, strategy string, build func() (core.Placement, error)) (core.Placement, error) {
	sp := t.start(trace, parent, name, strategy)
	pl, err := build()
	sp.end()
	if m, ok := pl.(*core.MAGICPlacement); ok {
		t.magicSwaps.Add(int64(m.RebalanceSwaps()))
		t.magicCells.Add(int64(m.Grid().NumCells()))
	}
	return pl, err
}

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) start(trace string, parent int64, name, attr string) *openSpan {
	return &openSpan{t: t, s: span{
		Trace: trace, ID: t.next.Add(1), Parent: parent, Name: name, Attr: attr,
		Start: time.Since(t.epoch).Nanoseconds(),
	}}
}

func (o *openSpan) end() {
	o.s.End = time.Since(o.t.epoch).Nanoseconds()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// write emits the spans as JSON lines in start order.
func (t *tracer) write(w io.Writer) error {
	spans := t.sorted()
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

func (t *tracer) sorted() []span {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	return spans
}

// selfTimes charges each span's duration, minus the part of its interval
// its children cover, to its layer. Children of one parent may overlap
// (jobs on parallel workers), so coverage is the union of their intervals.
func selfTimes(spans []span) map[string]float64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
	}
	out := map[string]float64{}
	for _, s := range spans {
		covered := int64(0)
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		lo, hi := s.Start, s.Start
		for _, c := range iv {
			a, b := max(c[0], s.Start), min(c[1], s.End)
			if b <= a {
				continue
			}
			if a > hi {
				covered += hi - lo
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		covered += hi - lo
		out[layerOf[s.Name]] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// window mirrors experiments.Correlation's generator window.
func window(c experiments.Correlation, card int) int {
	if c == experiments.HighCorrelation {
		return max(card/1000, 1)
	}
	return 0
}

// tracedBuild is one figure's shared inputs, built under spans.
type tracedBuild struct {
	fig        experiments.Figure
	rel        *storage.Relation
	mix        workload.Mix
	placements []core.Placement
	notes      []string
}

type relKey struct {
	card, window int
	seed         int64
}

// buildFigures is the campaigns' serial build phase: one relation per
// distinct (cardinality, window, seed) and one placement per (figure,
// strategy), with MAGIC's construction note in strategy order.
func (s spec) buildFigures(t *tracer, parent int64, opts experiments.Options) ([]tracedBuild, error) {
	rels := map[relKey]*storage.Relation{}
	var builds []tracedBuild
	for _, fig := range s.Figures {
		key := relKey{opts.Cardinality, window(fig.Correlation, opts.Cardinality), opts.Seed}
		rel, ok := rels[key]
		if !ok {
			sp := t.start(s.Name, parent, spanGen, "")
			rel = storage.GenerateWisconsin(storage.GenSpec{
				Cardinality: key.card, CorrelationWindow: key.window, Seed: key.seed,
			})
			sp.end()
			rels[key] = rel
		}
		fb := tracedBuild{fig: fig, rel: rel, mix: fig.Mix(opts.Cardinality)}
		for _, name := range fig.Strategies {
			pl, err := t.place(s.Name, parent, spanPlace, name, func() (core.Placement, error) {
				return experiments.BuildPlacement(name, rel, fb.mix, opts)
			})
			if err != nil {
				return nil, fmt.Errorf("figure %s: %w", fig.ID, err)
			}
			if m, ok := pl.(*core.MAGICPlacement); ok {
				plan := m.Plan()
				fb.notes = append(fb.notes, fmt.Sprintf(
					"magic: directory %v (%d entries, FC=%d, M=%.2f, Mi[A]=%.1f, Mi[B]=%.1f, %d rebalance swaps)",
					m.Dims(), m.Grid().NumCells(), plan.FC, plan.M,
					plan.Mi[storage.Unique1], plan.Mi[storage.Unique2], m.RebalanceSwaps()))
			}
			fb.placements = append(fb.placements, pl)
		}
		builds = append(builds, fb)
	}
	return builds, nil
}

// execute runs the job set on the harness pool under a pool span.
func (s spec) execute(t *tracer, pool *openSpan, jobs []harness.Job) ([]any, harness.Manifest, error) {
	values, manifest, err := harness.Execute(jobs, harness.Options{Workers: workers, Label: s.Name})
	pool.end()
	return values, manifest, err
}

// tracedClosed mirrors experiments.RunCampaign.
func (s spec) tracedClosed(t *tracer, root int64) (experiments.Campaign, error) {
	opts := s.Opts
	cfg := experiments.ConfigFor(opts)
	builds, err := s.buildFigures(t, root, opts)
	if err != nil {
		return experiments.Campaign{}, err
	}
	pool := t.start(s.Name, root, spanPool, "")
	var jobs []harness.Job
	for _, fb := range builds {
		for si, name := range fb.fig.Strategies {
			for _, mpl := range opts.MPLs {
				pl := fb.placements[si]
				id := fmt.Sprintf("fig%s/%s/mpl%d", fb.fig.ID, name, mpl)
				jobs = append(jobs, harness.Job{ID: id, Seed: opts.Seed, Run: func() (any, error) {
					job := t.start(id, pool.s.ID, spanJob, name)
					defer job.end()
					sp := t.start(id, job.s.ID, spanBuild, name)
					machine, err := gamma.Build(fb.rel, pl, cfg)
					sp.end()
					if err != nil {
						return nil, fmt.Errorf("figure %s/%s: %w", fb.fig.ID, name, err)
					}
					sp = t.start(id, job.s.ID, spanRun, name)
					res, err := machine.Run(fb.mix, gamma.RunSpec{
						MPL:            mpl,
						WarmupQueries:  opts.WarmupQueries,
						MeasureQueries: opts.MeasureQueries,
						Seed:           opts.Seed,
					})
					sp.end()
					if err != nil {
						return nil, fmt.Errorf("figure %s/%s MPL %d: %w", fb.fig.ID, name, mpl, err)
					}
					return res, nil
				}})
			}
		}
	}
	values, manifest, err := s.execute(t, pool, jobs)
	if err != nil {
		return experiments.Campaign{}, err
	}
	out := experiments.Campaign{Manifest: manifest}
	j := 0
	for _, fb := range builds {
		fr := experiments.FigureResult{Figure: fb.fig, Options: opts, Notes: fb.notes}
		for _, name := range fb.fig.Strategies {
			for _, mpl := range opts.MPLs {
				if v := values[j]; v != nil {
					fr.Points = append(fr.Points, experiments.Point{Strategy: name, MPL: mpl, Result: v.(gamma.RunResult)})
				}
				j++
			}
		}
		out.Figures = append(out.Figures, fr)
	}
	return out, manifest.Err()
}

// tracedElastic mirrors experiments.RunElastic for a fully specified
// ElasticOptions.
func (s spec) tracedElastic(t *tracer, root int64) (experiments.ElasticCampaign, error) {
	opts, eopts := s.Opts, *s.Elastic
	if opts.TelemetryWindowMS <= 0 {
		opts.TelemetryWindowMS = 250
	}
	builds, err := s.buildFigures(t, root, opts)
	if err != nil {
		return experiments.ElasticCampaign{}, err
	}
	pool := t.start(s.Name, root, spanPool, "")
	var jobs []harness.Job
	for _, fb := range builds {
		for _, name := range fb.fig.Strategies {
			for _, size := range eopts.Sizes {
				sized := opts
				sized.Processors = size
				id := fmt.Sprintf("fig%s/%s/elastic%d", fb.fig.ID, name, size)
				var serveSpan int64
				rebuild := func(rel *storage.Relation, procs int) (core.Placement, error) {
					o := sized
					o.Processors = procs
					return t.place(id, serveSpan, spanRebuild, name, func() (core.Placement, error) {
						return experiments.BuildPlacement(name, rel, fb.mix, o)
					})
				}
				jobs = append(jobs, harness.Job{ID: id, Seed: opts.Seed, Run: func() (any, error) {
					job := t.start(id, pool.s.ID, spanJob, name)
					defer job.end()
					pl, err := t.place(id, job.s.ID, spanPlace, name, func() (core.Placement, error) {
						return experiments.BuildPlacement(name, fb.rel, fb.mix, sized)
					})
					if err != nil {
						return nil, fmt.Errorf("figure %s/%s n=%d: %w", fb.fig.ID, name, size, err)
					}
					cfg := experiments.ConfigFor(sized).With(gamma.WithElastic(gamma.ElasticSpec{
						Events:          s.events(),
						RatePagesPerSec: eopts.MigrateRate,
						Rebuild:         rebuild,
					}))
					sp := t.start(id, job.s.ID, spanBuild, name)
					machine, err := gamma.Build(fb.rel, pl, cfg)
					sp.end()
					if err != nil {
						return nil, fmt.Errorf("figure %s/%s n=%d: %w", fb.fig.ID, name, size, err)
					}
					sp = t.start(id, job.s.ID, spanServe, name)
					serveSpan = sp.s.ID
					res, err := machine.RunServe(fb.mix, gamma.ServeSpec{
						Arrival:        serve.ArrivalSpec{Kind: eopts.Arrival, RateQPS: eopts.Lambda},
						Tenants:        serve.DefaultTenants(eopts.Tenants),
						MaxInService:   eopts.MaxInService,
						MaxQueue:       eopts.MaxQueue,
						SLOms:          eopts.SLOms,
						WarmupQueries:  opts.WarmupQueries,
						MeasureQueries: opts.MeasureQueries,
						MaxSimTime:     eopts.MaxSimTime,
						Seed:           opts.Seed,
					})
					sp.end()
					if err != nil {
						return nil, fmt.Errorf("figure %s/%s n=%d: %w", fb.fig.ID, name, size, err)
					}
					return res, nil
				}})
			}
		}
	}
	values, manifest, err := s.execute(t, pool, jobs)
	if err != nil {
		return experiments.ElasticCampaign{}, err
	}
	out := experiments.ElasticCampaign{Manifest: manifest}
	j := 0
	for _, fb := range builds {
		fr := experiments.ElasticFigureResult{Figure: fb.fig, Options: opts, Elastic: eopts, Notes: fb.notes}
		for _, name := range fb.fig.Strategies {
			for _, size := range eopts.Sizes {
				if v := values[j]; v != nil {
					res := v.(gamma.ServeResult)
					pt := experiments.ElasticPoint{Strategy: name, Size: size, Result: res}
					if rep := res.Rebalance; rep != nil {
						pt.TimeToRebalance = rep.MaxRebalance()
						pt.PagesMoved = rep.ReadPages + rep.WritePages
						pt.BytesMoved = rep.BytesMoved
						pt.Summary = rep.Summary()
					}
					pt.GoodputDip = goodputDip(res)
					fr.Points = append(fr.Points, pt)
				}
				j++
			}
		}
		out.Figures = append(out.Figures, fr)
	}
	return out, manifest.Err()
}

// goodputDip mirrors the elastic campaign's dip: 1 - worst window / mean
// of the serve.goodput_qps series, the final partial window excluded.
func goodputDip(res gamma.ServeResult) float64 {
	for _, sd := range res.Series {
		if sd.Name != "serve.goodput_qps" {
			continue
		}
		pts := sd.Points
		if len(pts) > 1 {
			pts = pts[:len(pts)-1]
		}
		if len(pts) == 0 {
			return 0
		}
		lo, sum := pts[0].V, 0.0
		for _, p := range pts {
			sum += p.V
			lo = min(lo, p.V)
		}
		if mean := sum / float64(len(pts)); mean > 0 {
			return 1 - lo/mean
		}
		return 0
	}
	return 0
}
