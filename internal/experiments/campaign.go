package experiments

// Campaign orchestration. Every campaign mode has the paper's Section 7
// shape: figures × strategies × one swept axis (MPL, offered load, initial
// cluster size, failed-disk count, machine size), each point one simulated
// run. A mode describes itself as a job list — each harness.Job added
// together with the callback that files its value into the mode's result —
// and one engine executes the list on the harness worker pool, then walks
// the values in job order: it stamps each job's manifest report and calls
// its callback, so results reassemble in canonical order (figures as
// given, strategies in figure order, axis values in sweep order) whatever
// the completion order.
//
// Expensive immutable inputs are built serially before any job runs and
// shared read-only across jobs: one storage.GenerateWisconsin per distinct
// (cardinality, correlation window, seed) and one BuildPlacement per
// (figure, strategy). Every job builds its own gamma machine from those
// inputs with the campaign seed, so campaign output is byte-identical
// whatever the worker count.
//
// Job IDs name the point: fig<ID>/<strategy>/<axis>, e.g. fig8a/magic/mpl4,
// fig8a/berd/poisson100, fig8a/range/elastic4, fig8b/magic/k1/mpl4 or
// fig11a/range/on/mpl8 (the scale sweep, which has no figure, uses
// scaleout/<strategy>/p<P>). They are unique within a campaign and are the
// handle for replaying one job.

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/gamma"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/workload"
)

// CampaignOptions configure the concurrent execution of a set of figures.
type CampaignOptions struct {
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// JobTimeout is the wall-clock budget of one (strategy, MPL) run;
	// <= 0 disables it. A blown budget becomes a manifest failure record,
	// not a crashed campaign.
	JobTimeout time.Duration
	// Progress receives live per-job progress/ETA lines; nil disables.
	Progress io.Writer
	// Label names the campaign in the manifest and progress lines.
	Label string
	// IsTransient classifies job errors that warrant the harness's single
	// automatic same-seed retry (see harness.Options.IsTransient).
	IsTransient func(error) bool
	// Hub, when non-nil, exposes telemetry samplers for live /metrics
	// scraping (open-system campaigns with telemetry armed). Each point's
	// sampler registers under the job ID as it completes and stays
	// registered, so a scrape shows every finished point's final series.
	Hub *obs.Hub
}

// Campaign holds the completed figures plus the harness run manifest.
type Campaign struct {
	Figures  []FigureResult
	Manifest harness.Manifest
}

// relKey identifies one generated relation; figures agreeing on all three
// fields share a single build.
type relKey struct {
	card   int
	window int
	seed   int64
}

// relationCache shares generated Wisconsin relations across figures. The
// relations are read-only after generation (the thread-safety contract the
// whole campaign relies on).
type relationCache map[relKey]*storage.Relation

func (c relationCache) get(card, window int, seed int64) *storage.Relation {
	key := relKey{card, window, seed}
	if rel, ok := c[key]; ok {
		return rel
	}
	rel := storage.GenerateWisconsin(storage.GenSpec{
		Cardinality:       card,
		CorrelationWindow: window,
		Seed:              seed,
	})
	c[key] = rel
	return rel
}

// figureBuild carries one figure's shared immutable inputs: the relation,
// the mix, and one placement per strategy.
type figureBuild struct {
	fig        Figure
	rel        *storage.Relation
	mix        workload.Mix
	placements []core.Placement
	notes      []string
}

// buildFigure constructs the figure's placements (and MAGIC's construction
// notes, in strategy order).
func buildFigure(fig Figure, rels relationCache, opts Options) (figureBuild, error) {
	fb := figureBuild{
		fig: fig,
		rel: rels.get(opts.Cardinality, fig.Correlation.window(opts.Cardinality), opts.Seed),
		mix: fig.Mix(opts.Cardinality),
	}
	for _, name := range fig.Strategies {
		pl, err := BuildPlacement(name, fb.rel, fb.mix, opts)
		if err != nil {
			return fb, err
		}
		if m, ok := pl.(*core.MAGICPlacement); ok {
			dims := m.Dims()
			plan := m.Plan()
			fb.notes = append(fb.notes, fmt.Sprintf(
				"magic: directory %v (%d entries, FC=%d, M=%.2f, Mi[A]=%.1f, Mi[B]=%.1f, %d rebalance swaps)",
				dims, m.Grid().NumCells(), plan.FC, plan.M,
				plan.Mi[storage.Unique1], plan.Mi[storage.Unique2], m.RebalanceSwaps()))
		}
		fb.placements = append(fb.placements, pl)
	}
	return fb, nil
}

// buildFigures is the campaign build phase, serial and ahead of every job:
// each distinct relation is generated once and each placement built once
// per (figure, strategy). Everything built here is read-only afterwards.
func buildFigures(figs []Figure, opts Options) ([]figureBuild, error) {
	rels := relationCache{}
	builds := make([]figureBuild, 0, len(figs))
	for _, fig := range figs {
		fb, err := buildFigure(fig, rels, opts)
		if err != nil {
			return nil, fmt.Errorf("figure %s: %w", fig.ID, err)
		}
		builds = append(builds, fb)
	}
	return builds, nil
}

// entry pairs one harness job with the callback that files its value into
// the mode's result. Serve-mode entries also carry the open-system
// workload their manifest report names, whether or not the job succeeds.
type entry struct {
	job     harness.Job
	file    func(any)
	arrival string
	qps     float64
}

// jobList is one campaign: its jobs in canonical order.
type jobList []entry

// addRun adds a closed-loop point: the job builds its own machine from the
// shared relation and placement, so no mutable state crosses workers, and
// runs spec on fb's mix.
func (l *jobList) addRun(id string, fb figureBuild, pl core.Placement, cfg gamma.Config, spec gamma.RunSpec, file func(gamma.RunResult)) {
	*l = append(*l, entry{
		job: harness.Job{ID: id, Seed: spec.Seed, Run: func() (any, error) {
			machine, err := gamma.Build(fb.rel, pl, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			res, err := machine.Run(fb.mix, spec)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			return res, nil
		}},
		file: func(v any) { file(v.(gamma.RunResult)) },
	})
}

// addServe adds an open-system point: the job obtains its placement from
// place (inside the job, so a per-point construction runs on the pool),
// builds its own machine and serves spec on fb's mix. With hub set, the
// point's telemetry sampler registers under the job ID as it completes.
func (l *jobList) addServe(id string, fb figureBuild, place func() (core.Placement, error), cfg gamma.Config, spec gamma.ServeSpec, hub *obs.Hub, file func(gamma.ServeResult)) {
	*l = append(*l, entry{
		job: harness.Job{ID: id, Seed: spec.Seed, Run: func() (any, error) {
			pl, err := place()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			machine, err := gamma.Build(fb.rel, pl, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			res, err := machine.RunServe(fb.mix, spec)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			// Register after the run: RunServe resets the machine
			// (rebuilding the sampler), so the pre-run pointer would be
			// stale. Completed points accumulate on the hub and stay
			// scrapeable after the campaign.
			if hub != nil && machine.Telemetry != nil {
				hub.Register(id, machine.Telemetry)
			}
			return res, nil
		}},
		file:    func(v any) { file(v.(gamma.ServeResult)) },
		arrival: spec.Arrival.Kind.String(),
		qps:     spec.Arrival.RateQPS,
	})
}

// run executes the list on the harness worker pool, then walks the values
// in job order: each report is stamped and each surviving value filed.
// Job failures (errors, panics, timeouts) become manifest failure records
// and surface combined as the returned error.
func (l jobList) run(copts CampaignOptions) (harness.Manifest, error) {
	jobs := make([]harness.Job, len(l))
	for j, e := range l {
		jobs[j] = e.job
	}
	values, manifest, err := harness.Execute(jobs, harness.Options{
		Workers:     copts.Workers,
		JobTimeout:  copts.JobTimeout,
		Progress:    copts.Progress,
		Label:       copts.Label,
		IsTransient: copts.IsTransient,
	})
	if err != nil {
		return manifest, err
	}
	for j, e := range l {
		rep := &manifest.Reports[j]
		rep.Arrival, rep.OfferedQPS = e.arrival, e.qps
		if v := values[j]; v != nil {
			stamp(rep, v)
			e.file(v)
		}
	}
	return manifest, manifest.Err()
}

// stamp copies a run's manifest-facing fields onto its job report.
func stamp(rep *harness.JobReport, v any) {
	switch r := v.(type) {
	case gamma.RunResult:
		rep.FaultEvents, rep.TimeSeries, rep.HotFragments = len(r.FaultLog), r.Series, r.HotFragments
	case gamma.ServeResult:
		rep.FaultEvents, rep.TimeSeries, rep.HotFragments = len(r.FaultLog), r.Series, r.HotFragments
	}
}

// RunCampaign executes every (figure, strategy, MPL) combination of the
// figure list on the harness worker pool. Placement-construction errors
// abort the campaign before any job runs; job failures become manifest
// failure records, the surviving points are returned, and the combined
// failure surfaces as the returned error.
func RunCampaign(figs []Figure, opts Options, copts CampaignOptions) (Campaign, error) {
	opts = opts.withDefaults()
	builds, err := buildFigures(figs, opts)
	if err != nil {
		return Campaign{}, err
	}
	cfg := ConfigFor(opts)
	out := Campaign{Figures: make([]FigureResult, len(builds))}
	var l jobList
	for i, fb := range builds {
		fr := &out.Figures[i]
		*fr = FigureResult{Figure: fb.fig, Options: opts, Notes: fb.notes}
		for si, name := range fb.fig.Strategies {
			for _, mpl := range opts.MPLs {
				l.addRun(fmt.Sprintf("fig%s/%s/mpl%d", fb.fig.ID, name, mpl), fb, fb.placements[si], cfg,
					opts.runSpec(mpl), func(res gamma.RunResult) {
						fr.Points = append(fr.Points, Point{Strategy: name, MPL: mpl, Result: res})
					})
			}
		}
	}
	out.Manifest, err = l.run(copts)
	return out, err
}

// Archive converts the campaign's figures into a serializable Archive.
func (c Campaign) Archive(label string, opts Options) Archive {
	a := Archive{Label: label, Options: opts}
	for _, fr := range c.Figures {
		a.Figures = append(a.Figures, fr.Archive())
	}
	return a
}
