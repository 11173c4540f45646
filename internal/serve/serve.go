package serve

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Executor executes one query plan inside the simulation and reports its
// typed result. exec.Host satisfies it; the indirection keeps this package
// from importing the machine assembly.
type Executor interface {
	Submit(p *sim.Proc, n *plan.Node) exec.QueryResult
}

// Config parameterizes one serving run.
type Config struct {
	// Arrival is the open arrival process (required: RateQPS > 0).
	Arrival ArrivalSpec
	// Tenants are the logical customers; arrivals are assigned uniformly at
	// random across them, weights govern dispatch under contention.
	// Default: 4 equally weighted tenants.
	Tenants []Tenant

	// MaxInService is the MPL governor: the number of service slots, i.e.
	// the most queries executing concurrently. Default 64 (the paper's top
	// closed-loop MPL).
	MaxInService int
	// MaxQueue bounds the admission wait queue, partitioned evenly across
	// tenants: an arrival whose tenant partition is full is shed with
	// ShedQueueFull even if other partitions have room. Per-tenant
	// backpressure is what makes weighted fairness measurable under
	// overload — with one shared bound, a slow tenant's backlog would
	// crowd out every other tenant's admissions. Default 4 x MaxInService.
	MaxQueue int
	// MaxQueueWait ages out queries that waited too long for a service
	// slot: the dispatcher sheds them with ShedAged instead of burning a
	// slot on already-missed deadlines. Default 4 x SLOms.
	MaxQueueWait sim.Duration
	// SLOms is the latency objective for goodput accounting. Default 1000.
	SLOms float64

	// WarmupQueries completions are discarded as the initial transient;
	// the next MeasureQueries completions form the measurement window.
	// Defaults 200 and 2000.
	WarmupQueries  int
	MeasureQueries int
	// MaxSimTime bounds the run in simulated time in case completions
	// cannot reach the target (e.g. offered load far below expectations).
	// Default 3600 simulated seconds.
	MaxSimTime sim.Duration

	// Sample draws one query plan (and a class label for traces) per
	// admitted arrival, from the given dedicated stream. Required.
	Sample func(src *rng.Source) (*plan.Node, string)
	// OnWarm fires once at the warm-up boundary, before the measurement
	// window opens — the hook the machine uses to reset its own hardware
	// statistics in step with the tracker.
	OnWarm func()

	// Telemetry, when non-nil, attaches the run to a windowed time-series
	// sampler: Run registers the serving probes (arrival/goodput/shed
	// rates, queue depth, in-flight count, admission credits, windowed
	// queue wait) and spawns a driver process that samples every window of
	// simulated time and feeds the SLO burn-rate evaluator. The sampler is
	// rebased at the warm-up boundary, right after OnWarm, so measured
	// series exclude the transient. Nil (the default) spawns nothing: the
	// simulation schedule is byte-identical to a telemetry-free build.
	Telemetry *obs.Sampler
	// BurnBudget is the per-window fraction of completions allowed to miss
	// the SLO (or fail) before the window counts as an SLO violation.
	// Default 0.1. Only consulted when Telemetry is set.
	BurnBudget float64
}

func (c Config) withDefaults() Config {
	if len(c.Tenants) == 0 {
		c.Tenants = DefaultTenants(4)
	}
	if c.MaxInService <= 0 {
		c.MaxInService = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInService
	}
	if c.SLOms <= 0 {
		c.SLOms = 1000
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = sim.Milliseconds(4 * c.SLOms)
	}
	if c.WarmupQueries < 0 {
		c.WarmupQueries = 0
	}
	if c.MeasureQueries <= 0 {
		c.MeasureQueries = 2000
	}
	if c.MaxSimTime <= 0 {
		c.MaxSimTime = 3600 * sim.Second
	}
	return c
}

// Validate rejects configs the frontend cannot run.
func (c Config) Validate() error {
	if err := c.Arrival.Validate(); err != nil {
		return err
	}
	if c.Sample == nil {
		return fmt.Errorf("serve: Config.Sample is required")
	}
	for i, t := range c.Tenants {
		if t.Weight < 0 {
			return fmt.Errorf("serve: tenant %d (%s) has negative weight %g", i, t.Name, t.Weight)
		}
	}
	return nil
}

// OutcomeCounts tallies completed queries by execution outcome.
type OutcomeCounts struct {
	OK       int64 `json:"ok"`
	Retried  int64 `json:"retried"`
	TimedOut int64 `json:"timed_out"`
	Failed   int64 `json:"failed"`
}

func (o *OutcomeCounts) add(out exec.Outcome) {
	switch out {
	case exec.OutcomeOK:
		o.OK++
	case exec.OutcomeRetried:
		o.Retried++
	case exec.OutcomeTimedOut:
		o.TimedOut++
	case exec.OutcomeFailed:
		o.Failed++
	}
}

// Result is one serving run's measured statistics (the post-warm-up
// window only).
type Result struct {
	Arrival    ArrivalKind `json:"arrival"`
	OfferedQPS float64     `json:"offered_qps"`

	SLO      SLOStats      `json:"slo"`
	Outcomes OutcomeCounts `json:"outcomes"`

	MeasuredStart sim.Time `json:"measured_start_ns"`
	MeasuredEnd   sim.Time `json:"measured_end_ns"`

	// Warmed is false when MaxSimTime expired inside warm-up; the SLO
	// window then covers whatever ran after the (never-reached) boundary.
	Warmed bool `json:"warmed"`
	// HitMaxSimTime is true when the run stopped on the time bound rather
	// than the completion target.
	HitMaxSimTime bool `json:"hit_max_sim_time"`

	// Burn is the SLO burn-rate evaluator's verdict over the measured
	// windows — first-violation and recovery times included. Nil when the
	// run had no telemetry attached.
	Burn *BurnStats `json:"burn,omitempty"`
}

// ElapsedSeconds is the measurement window's length in simulated seconds.
func (r Result) ElapsedSeconds() float64 {
	return (r.MeasuredEnd - r.MeasuredStart).Seconds()
}

// CompletedQPS is the measured completion throughput.
func (r Result) CompletedQPS() float64 {
	if e := r.ElapsedSeconds(); e > 0 {
		return float64(r.SLO.Completed) / e
	}
	return 0
}

// GoodputQPS is the measured rate of queries that succeeded within the SLO.
func (r Result) GoodputQPS() float64 {
	if e := r.ElapsedSeconds(); e > 0 {
		return float64(r.SLO.Good) / e
	}
	return 0
}

// Run executes one open-system serving run to completion on the engine:
// it spawns the arrival process and MaxInService worker processes, runs the
// engine until the measurement target (or MaxSimTime), sheds the queued
// residue, and returns the measured statistics.
//
// Determinism: the run draws from exactly three dedicated streams —
// "serve.arrivals" (inter-arrival gaps), "serve.tenant" (tenant
// assignment), and "serve.sample" (predicate sampling) — in arrival order,
// so the full admission schedule is a pure function of (seed, config).
func Run(eng *sim.Engine, streams *rng.Factory, cfg Config, backend Executor) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if backend == nil {
		return Result{}, fmt.Errorf("serve: backend executor is required")
	}

	arrivalSrc := streams.Stream("serve.arrivals")
	tenantSrc := streams.Stream("serve.tenant")
	sampleSrc := streams.Stream("serve.sample")
	arr, err := NewArrivals(cfg.Arrival, arrivalSrc)
	if err != nil {
		return Result{}, err
	}

	f := &frontend{
		cfg:     cfg,
		eng:     eng,
		tracker: NewTracker(cfg.Tenants, cfg.SLOms),
		queues:  newTenantQueues(cfg.Tenants),
		work:    sim.NewMailbox[struct{}](eng, "serve.work"),
		backend: backend,
	}
	f.warmed = cfg.WarmupQueries == 0
	if f.warmed {
		f.measuredStart = eng.Now()
	}
	perTenantCap := cfg.MaxQueue / len(cfg.Tenants)
	if perTenantCap < 1 {
		perTenantCap = 1
	}

	// Telemetry driver: one process holding one window of simulated time
	// per iteration, sampling every probe and scoring the window's SLO
	// burn. Sim-time events only — the series is as deterministic as the
	// simulation itself.
	if cfg.Telemetry != nil {
		f.burn = newBurnEval(cfg.Telemetry.WindowNS(), cfg.BurnBudget)
		f.registerProbes(cfg.Telemetry)
		window := sim.Duration(cfg.Telemetry.WindowNS())
		eng.Spawn("serve.telemetry", func(p *sim.Proc) {
			for {
				p.Hold(window)
				if eng.Stopped() {
					return
				}
				cfg.Telemetry.Sample(int64(p.Now()))
				f.burn.observe(p.Now(), f.tracker)
			}
		})
	}

	eng.Spawn("serve.arrivals", func(p *sim.Proc) {
		for {
			p.Hold(arr.Next())
			if eng.Stopped() {
				return
			}
			tenant := tenantSrc.Intn(len(cfg.Tenants))
			f.tracker.Arrival(tenant)
			if f.queues.TenantLen(tenant) >= perTenantCap {
				f.tracker.Shed(tenant, ShedQueueFull)
				continue
			}
			f.nextID++
			query, class := cfg.Sample(sampleSrc)
			f.tracker.Admit(tenant)
			f.queues.Push(queued{
				id:       f.nextID,
				tenant:   tenant,
				query:    query,
				class:    class,
				arrived:  p.Now(),
				admitted: p.Now(),
			})
			// One work token per queued item: the token mailbox is the
			// governor's credit ledger, and the 1:1 invariant between
			// tokens and queued items must hold even across age-out sheds
			// (a shed consumes its token and the worker loops).
			f.work.Put(struct{}{})
		}
	})

	for w := 0; w < cfg.MaxInService; w++ {
		eng.Spawn(fmt.Sprintf("serve.worker%d", w), func(p *sim.Proc) {
			f.worker(p)
		})
	}

	if err := eng.RunUntil(eng.Now() + sim.Time(cfg.MaxSimTime)); err != nil {
		return Result{}, err
	}
	hitTime := !f.done
	eng.Stop() // idempotent; covers the MaxSimTime path

	// Shed the queued residue with a typed outcome so every admitted query
	// is accounted for.
	for _, item := range f.queues.Drain() {
		f.tracker.Shed(item.tenant, ShedShutdown)
	}

	end := eng.Now()
	res := Result{
		Arrival:       arr.Kind(),
		OfferedQPS:    arr.RateQPS(),
		SLO:           f.tracker.Snapshot(),
		Outcomes:      f.outcomes,
		MeasuredStart: f.measuredStart,
		MeasuredEnd:   end,
		Warmed:        f.warmed,
		HitMaxSimTime: hitTime,
	}
	if !f.warmed {
		res.MeasuredStart = end // empty window: no measured statistics
	}
	if f.burn != nil {
		b := f.burn.stats
		res.Burn = &b
	}
	return res, nil
}

// frontend is the serving run's shared mutable state. The simulation kernel
// runs one process at a time, so no locking is needed.
type frontend struct {
	cfg     Config
	eng     *sim.Engine
	tracker *Tracker
	queues  *tenantQueues
	work    *sim.Mailbox[struct{}]
	backend Executor

	nextID         int64
	completedTotal int64
	inflight       int // queries currently executing (telemetry probe)
	outcomes       OutcomeCounts
	warmed         bool
	done           bool
	measuredStart  sim.Time
	burn           *burnEval // nil without telemetry
}

// registerProbes wires the serving layer's time series onto the sampler.
// Closure-state probes (the windowed queue-wait mean, the windowed shed
// rate) re-prime themselves at warm-up because Rebase invokes every probe.
func (f *frontend) registerProbes(ts *obs.Sampler) {
	tr := f.tracker
	ts.Register("serve.arrival_qps", obs.SeriesRate, func() float64 { return float64(tr.arrivals) })
	ts.Register("serve.admitted_qps", obs.SeriesRate, func() float64 { return float64(tr.admitted) })
	ts.Register("serve.completed_qps", obs.SeriesRate, func() float64 { return float64(tr.completed) })
	ts.Register("serve.goodput_qps", obs.SeriesRate, func() float64 { return float64(tr.good) })
	ts.Register("serve.shed_qps", obs.SeriesRate, func() float64 { return float64(tr.shedTotal()) })
	ts.Register("serve.queue_depth", obs.SeriesGauge, func() float64 { return float64(f.queues.Len()) })
	ts.Register("serve.inflight", obs.SeriesGauge, func() float64 { return float64(f.inflight) })
	ts.Register("serve.credits", obs.SeriesGauge, func() float64 {
		return float64(f.cfg.MaxInService - f.inflight)
	})
	// Windowed queue-wait mean: difference the histogram's cumulative sum
	// and count across sample instants.
	prevSum, prevN := tr.queueWait.Sum(), tr.queueWait.N()
	ts.Register("serve.queue_wait_ms", obs.SeriesGauge, func() float64 {
		sum, n := tr.queueWait.Sum(), tr.queueWait.N()
		dSum, dN := sum-prevSum, n-prevN
		prevSum, prevN = sum, n
		if dN <= 0 || dSum < 0 {
			return 0
		}
		return dSum / float64(dN)
	})
	// Windowed shed rate: sheds over arrivals within the window.
	prevShed, prevArr := tr.shedTotal(), tr.arrivals
	ts.Register("serve.shed_rate", obs.SeriesGauge, func() float64 {
		shed, arr := tr.shedTotal(), tr.arrivals
		dShed, dArr := shed-prevShed, arr-prevArr
		prevShed, prevArr = shed, arr
		if dArr <= 0 || dShed < 0 {
			return 0
		}
		return float64(dShed) / float64(dArr)
	})
}

// worker is one service slot: it blocks on the work-token mailbox, picks
// the next query under weighted round-robin, sheds it if it aged out in the
// queue, otherwise executes it and records the result.
func (f *frontend) worker(p *sim.Proc) {
	for {
		if _, ok := f.work.Recv(p); !ok {
			return
		}
		if f.eng.Stopped() {
			return
		}
		item, ok := f.queues.Pop()
		if !ok {
			// A token without an item means the 1:1 invariant broke.
			panic("serve: work token with empty queue")
		}
		wait := p.Now() - item.arrived
		if sim.Duration(wait) > f.cfg.MaxQueueWait {
			f.tracker.Shed(item.tenant, ShedAged)
			continue
		}
		f.inflight++
		res := f.backend.Submit(p, item.query)
		f.inflight--
		waitMS := sim.Duration(wait).Milliseconds()
		latencyMS := sim.Duration(p.Now() - item.arrived).Milliseconds()
		f.tracker.Complete(item.tenant, waitMS, latencyMS, res.Outcome.Succeeded())
		f.outcomes.add(res.Outcome)
		f.completedTotal++
		f.advance(p)
	}
}

// advance moves the warm-up / measurement state machine after a completion.
func (f *frontend) advance(p *sim.Proc) {
	if !f.warmed {
		if f.completedTotal >= int64(f.cfg.WarmupQueries) {
			f.warmed = true
			f.measuredStart = p.Now()
			f.tracker.Reset()
			f.outcomes = OutcomeCounts{}
			if f.cfg.OnWarm != nil {
				f.cfg.OnWarm()
			}
			// Rebase the time series and burn deltas after every cumulative
			// source (tracker, machine stats via OnWarm) has reset, so the
			// first measured window never sees a negative delta.
			if f.burn != nil {
				f.burn.rebase(f.tracker)
			}
			f.cfg.Telemetry.Rebase(int64(p.Now()))
		}
		return
	}
	if !f.done && f.tracker.Completed() >= int64(f.cfg.MeasureQueries) {
		f.done = true
		f.eng.Stop()
	}
}
