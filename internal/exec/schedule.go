package exec

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sim"
)

// RetryPolicy tunes the scheduler's fault handling. All durations are
// simulated time. The zero value is the fault-free policy: no operator
// timeout, no query deadline and no retries, so the first operator error
// fails the query.
type RetryPolicy struct {
	// OpTimeout guards each wait for operator replies: when it expires,
	// every outstanding operator is redispatched (a lost reply and a dead
	// node look the same from the scheduler). Zero waits indefinitely.
	OpTimeout sim.Duration
	// QueryDeadline is the end-to-end budget per query; past it the query
	// is abandoned with OutcomeTimedOut. Zero means no deadline.
	QueryDeadline sim.Duration
	// MaxRetries bounds redispatches per logical operator.
	MaxRetries int
	// BackoffBase and BackoffCap shape the exponential backoff between
	// redispatches: base·2^(attempt-1), capped, jittered ±50%.
	BackoffBase sim.Duration
	BackoffCap  sim.Duration
}

// DefaultRetryPolicy returns conservative defaults: operator timeouts well
// above any healthy response time at the paper's load levels, and a retry
// budget that tolerates a fault burst without retrying forever.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		OpTimeout:     2 * sim.Second,
		QueryDeadline: 20 * sim.Second,
		MaxRetries:    3,
		BackoffBase:   5 * sim.Millisecond,
		BackoffCap:    200 * sim.Millisecond,
	}
}

// Degraded configures the scheduler's fault handling.
type Degraded struct {
	Policy RetryPolicy
	// View is the scheduler's picture of node/disk health, kept current by
	// the fault injector. Nil means "assume everything available".
	View *fault.View
	// Backup maps a placement slot to the slot whose node holds its
	// chained-declustering replica, or -1 when the fragment has no replica.
	// slots is the slot count of the query's captured topology (0 when no
	// explicit topology is installed; implementations then use their
	// build-time node count). Nil means no replicas.
	Backup func(slot, slots int) int
	// Jitter randomizes backoff delays (a dedicated rng stream, so enabling
	// retries perturbs no other stochastic decision in the run).
	Jitter *rng.Source
}

// faultFree is the configuration a Host with nil Degraded schedules under:
// the zero policy, no health view, no replicas, no jitter.
var faultFree Degraded

// available consults the health view, defaulting to available.
func (d *Degraded) available(node int) bool {
	return d.View == nil || d.View.Available(node)
}

// call tracks one logical operator (work against one primary fragment)
// through dispatch, retries, and replica rerouting.
type call struct {
	primary   int  // placement slot whose fragment the work targets
	target    int  // physical node the live attempt was sent to
	attempt   int  // query-unique id of the live attempt
	retries   int  // redispatches so far
	useBackup bool // current replica preference
	done      bool
}

// collector is the Scheduler's state for one query of any plan shape: it
// drives the query's logical calls — BERD's auxiliary lookups, then one
// selection or partial-aggregate operator per participant; or one
// operator per join slot — to completion under the retry policy: per-wait
// timeouts, bounded jittered exponential backoff, chained-replica
// rerouting, and at-most-once accounting (stale or duplicated replies are
// dropped by attempt id). It is the scheduler's only wait loop; under the
// zero policy it dispatches each call once and blocks on plain mailbox
// reads.
type collector struct {
	h        *Host
	d        *Degraded
	p        *sim.Proc
	mb       *sim.Mailbox[any]
	qid      int64
	relation string
	pred     core.Predicate
	kind     AccessKind
	deadline sim.Time // zero: no deadline
	// topo/epoch are the query's captured placement generation: slots
	// resolve to physical nodes through topo for every dispatch, including
	// retries that straddle a rebalance cutover.
	topo  []int
	epoch int
	used  map[int]bool
	// tidsByProc is BERD step one's answer (home slot -> qualifying TIDs);
	// fetchByTID makes step two ship those TIDs instead of the predicate.
	tidsByProc map[int][]int64
	fetchByTID bool
	qspan      sim.Span
	res        QueryResult

	// agg is the Aggregate root of an aggregate plan (nil otherwise): its
	// operators return partials that accept folds into res.Value.
	agg *plan.Node
	// join is set for a Join plan: its calls are join-operator slots.
	join *joinPlan

	aux   bool   // the current phase dispatches auxiliary lookups
	calls []call // the current phase's logical calls
}

// joinInput is one side of a join: the relation, its join attribute and
// the predicate its scans apply (the full domain for a bare scan).
type joinInput struct {
	relation string
	attr     int
	pred     core.Predicate
}

// joinPlan is a Join plan's dispatch state.
type joinPlan struct {
	inputs [2]joinInput // indexed by joinPhase: build, then probe
	local  bool         // core.CoLocated: no repartitioning
}

// backupOf returns the slot whose node replicates c's fragment, or -1.
func (col *collector) backupOf(slot int) int {
	if col.d.Backup == nil {
		return -1
	}
	return col.d.Backup(slot, len(col.topo))
}

// pickTarget chooses the replica to dispatch to, honoring the call's
// current preference but falling back to whichever copy is available.
// After it returns true, c.useBackup reports whether the chosen target
// holds the backup copy.
func (col *collector) pickTarget(c *call) (int, bool) {
	prefSlot, altSlot := c.primary, col.backupOf(c.primary)
	if c.useBackup {
		prefSlot, altSlot = altSlot, prefSlot
	}
	if prefSlot >= 0 {
		if phys := physOf(col.topo, prefSlot); col.d.available(phys) {
			return phys, true
		}
	}
	if altSlot >= 0 {
		if phys := physOf(col.topo, altSlot); col.d.available(phys) {
			c.useBackup = !c.useBackup
			return phys, true
		}
	}
	return -1, false
}

// send dispatches the call's next attempt, reporting false when no replica
// of the fragment is available.
func (col *collector) send(c *call) bool {
	target, ok := col.pickTarget(c)
	if !ok {
		return false
	}
	c.target = target
	col.h.nextAttempt++
	c.attempt = col.h.nextAttempt
	col.used[target] = true
	col.dispatch(c)
	return true
}

// dispatch sends the request for c's current (target, attempt, backup)
// state. Operators other than TID fetches — which carry per-node TID lists
// and cannot be predicate-grouped — ride a shared-scan batch when the
// manager is armed: batches are keyed by replica role and epoch, and the
// attempt tag echoed in the batched reply lets run drop stale batch
// replies exactly as for lone operators.
func (col *collector) dispatch(c *call) {
	h := col.h
	var payload any
	switch {
	case col.aux:
		payload = auxLookup{QueryID: col.qid, Relation: col.relation, Pred: col.pred,
			ReplyTo: h.ID, Attempt: c.attempt, Backup: c.useBackup, Epoch: col.epoch}
	case h.Shared != nil && !col.fetchByTID && col.agg == nil:
		h.Shared.enqueue(c.target, col.relation, col.pred, col.kind, col.qid, c.attempt, c.useBackup, col.epoch)
		return
	default:
		op := startOp{QueryID: col.qid, Relation: col.relation, Pred: col.pred, ReplyTo: h.ID,
			Access: col.kind, Attempt: c.attempt, Backup: c.useBackup, Epoch: col.epoch}
		if col.fetchByTID {
			op.Access = AccessTIDFetch
			op.TIDs = col.tidsByProc[c.primary]
		}
		payload = op
		if col.agg != nil {
			payload = aggOp{startOp: op, Fn: col.agg.Fn, Attr: col.agg.Attr}
		}
	}
	h.net.Send(col.p, nil, hw.Message{From: h.ID, To: c.target, Bytes: controlBytes, Payload: payload})
}

// dispatchJoin starts a join: it pins every operator slot to its physical
// node in the query's captured topology, then sends the build input's
// scans and the probe input's scans, one per slot in slot order. Join
// calls have no replica: an unavailable node fails the query.
func (col *collector) dispatchJoin() error {
	h, j := col.h, col.join
	targets := make([]joinTarget, len(col.calls))
	for i := range col.calls {
		c := &col.calls[i]
		c.target = physOf(col.topo, c.primary)
		if !col.d.available(c.target) {
			return fmt.Errorf("exec: join operator node %d unavailable", c.target)
		}
		h.nextAttempt++
		c.attempt = h.nextAttempt
		col.used[c.target] = true
		targets[i] = joinTarget{Node: c.target, Attempt: c.attempt}
	}
	for phase, in := range j.inputs {
		for slot, tgt := range targets {
			h.net.Send(col.p, nil, hw.Message{
				From: h.ID, To: tgt.Node, Bytes: controlBytes,
				Payload: joinScan{
					QueryID: col.qid, Relation: in.relation, Attr: in.attr,
					Phase: joinPhase(phase), Pred: in.pred, Local: j.local,
					Slot: slot, Targets: targets, ReplyTo: h.ID, Epoch: col.epoch,
				},
			})
		}
	}
	return nil
}

// accept folds a matched success reply into the query result.
func (col *collector) accept(c *call, msg any) {
	switch r := msg.(type) {
	case auxResult:
		col.res.ServedBy = append(col.res.ServedBy, ServedOp{
			Fragment: c.primary, Node: c.target, Backup: c.useBackup, Aux: true,
		})
		for proc, tids := range r.TIDsByProc {
			col.tidsByProc[proc] = append(col.tidsByProc[proc], tids...)
		}
	case opResult:
		col.served(c, r.Tuples)
	case aggPartial:
		if r.Tuples > 0 {
			col.res.Value = fold(col.agg.Fn, col.res.Value, r.Value, col.res.Tuples == 0)
		}
		col.served(c, r.Tuples)
	case joinDone:
		col.served(c, r.Matches)
	}
}

// served books tuples from c's live attempt into the result.
func (col *collector) served(c *call, tuples int) {
	col.res.Tuples += tuples
	col.res.ServedBy = append(col.res.ServedBy, ServedOp{
		Fragment: c.primary, Node: c.target, Backup: c.useBackup, Tuples: tuples,
	})
}

// live returns the outstanding call whose live attempt is id, or nil for a
// reply to a superseded attempt or a duplicate.
func (col *collector) live(id int) *call {
	for i := range col.calls {
		if c := &col.calls[i]; c.attempt == id && !c.done {
			return c
		}
	}
	return nil
}

// retry backs off and redispatches, reporting false when the retry budget
// is exhausted or no replica is available.
func (col *collector) retry(c *call) bool {
	if c.retries >= col.d.Policy.MaxRetries {
		return false
	}
	c.retries++
	col.res.Retries++
	col.h.retriesC.Inc()
	col.backoff(c.retries)
	return col.send(c)
}

// backoff holds the coordinator for base·2^(nth-1), capped and jittered
// ±50% from the dedicated retry stream.
func (col *collector) backoff(nth int) {
	d := col.d.Policy.BackoffBase
	for i := 1; i < nth && d < col.d.Policy.BackoffCap; i++ {
		d *= 2
	}
	if d > col.d.Policy.BackoffCap {
		d = col.d.Policy.BackoffCap
	}
	if col.d.Jitter != nil {
		d = sim.Duration(float64(d) * col.d.Jitter.Uniform(0.5, 1.5))
	}
	if d > 0 {
		col.p.Hold(d)
	}
}

// orphan books a reply that no longer matches an outstanding attempt —
// superseded by a retry, or an interconnect duplicate.
func (col *collector) orphan() {
	col.h.Orphans++
	col.h.orphanC.Inc()
}

// run dispatches one call per primary slot (auxiliary lookups when aux is
// set, operators otherwise; a join's slots when join is set) and collects
// replies until all complete, the deadline passes, or a call runs out of
// options. A join's scans feed operators on other nodes, so a lost or
// failed one cannot be replayed on its own: a join waits under the query
// deadline only, and its first operator error fails the query.
func (col *collector) run(aux bool, primaries []int) (Outcome, error) {
	col.aux = aux
	col.calls = make([]call, len(primaries))
	for i, slot := range primaries {
		col.calls[i] = call{primary: slot, target: -1}
	}
	opTimeout := col.d.Policy.OpTimeout
	if col.join != nil {
		opTimeout = 0
		if err := col.dispatchJoin(); err != nil {
			return OutcomeFailed, err
		}
	} else {
		for i := range col.calls {
			if c := &col.calls[i]; !col.send(c) {
				return OutcomeFailed, fmt.Errorf("exec: no available replica of node %d's fragment", c.primary)
			}
		}
	}
	for remaining := len(col.calls); remaining > 0; {
		wait := opTimeout
		if col.deadline > 0 {
			left := sim.Duration(col.deadline - col.p.Now())
			if left <= 0 {
				return OutcomeTimedOut, fmt.Errorf("exec: query deadline exceeded with %d operators outstanding", remaining)
			}
			if wait == 0 || left < wait {
				wait = left
			}
		}
		var msg any
		if wait == 0 {
			// No timeout armed: a plain read schedules no timer event.
			msg = col.mb.Get(col.p)
		} else if m, ok := col.mb.GetTimeout(col.p, wait); ok {
			msg = m
		} else {
			if col.deadline > 0 && col.p.Now() >= col.deadline {
				return OutcomeTimedOut, fmt.Errorf("exec: query deadline exceeded with %d operators outstanding", remaining)
			}
			// Operator timeout: redispatch everything outstanding, flipping
			// each call's replica preference — a silent primary is retried
			// on its backup and vice versa.
			for i := range col.calls {
				c := &col.calls[i]
				if c.done {
					continue
				}
				c.useBackup = !c.useBackup
				if !col.retry(c) {
					return OutcomeFailed, fmt.Errorf("exec: node %d's operator unresponsive after %d attempts", c.primary, c.retries+1)
				}
			}
			continue
		}
		switch r := msg.(type) {
		case opError:
			if col.join != nil {
				return OutcomeFailed, fmt.Errorf("exec: join scan on node %d failed: %s", r.Node, r.Msg)
			}
			c := col.live(r.Attempt)
			if c == nil {
				col.orphan() // stale attempt or duplicated error
				continue
			}
			if !r.Transient {
				// Fail-stop or routing error: this replica is not coming
				// back; go to the other one.
				c.useBackup = !c.useBackup
			}
			if !col.retry(c) {
				return OutcomeFailed, fmt.Errorf("exec: operator on node %d failed: %s", r.Node, r.Msg)
			}
		case attemptTagged:
			c := col.live(r.attemptID())
			if c == nil {
				col.orphan() // late reply for a superseded attempt, or a duplicate
				continue
			}
			c.done = true
			remaining--
			col.accept(c, msg)
		}
	}
	return OutcomeOK, nil
}

// finish stamps the query's outcome and completion, books it in the host's
// statistics, closes its trace span and retires its mailbox: later replies
// for it are orphans.
func (col *collector) finish(outcome Outcome, err error) QueryResult {
	h, res := col.h, &col.res
	if outcome == OutcomeOK && res.Retries > 0 {
		outcome = OutcomeRetried
	}
	res.Outcome = outcome
	res.Err = err
	res.ProcessorsUsed = len(col.used)
	res.Completed = col.p.Now()
	h.QueriesRun++
	h.completedC.Inc()
	h.fanoutH.Observe(float64(res.ProcessorsUsed))
	h.respH.Observe(res.ResponseMS())
	h.countOutcome(outcome)
	if col.qspan.Active() {
		detail := fmt.Sprintf("%d tuples, %d processors (%d aux)",
			res.Tuples, res.ProcessorsUsed, res.AuxProcessors)
		if outcome != OutcomeOK {
			detail = fmt.Sprintf("%s: %s, %d retries", outcome, detail, res.Retries)
		}
		col.qspan.End(obs.NoNode, "query", fmt.Sprintf("q%d %s", col.qid, col.relation), col.qid, detail)
	}
	delete(h.pending, col.qid)
	col.p.SetQID(0)
	return *res
}

// placement returns a registered relation's placement.
func (h *Host) placement(relation string) core.Placement {
	pl, ok := h.placements[relation]
	if !ok {
		panic(fmt.Sprintf("exec: unknown relation %q", relation))
	}
	return pl
}

// begin opens a query: a fresh id and mailbox registered with the
// dispatcher, and the routing generation captured once — every dispatch
// of the query, retries and the BERD second step included, uses the same
// topology and epoch, even if a rebalance cutover lands mid-query. It then
// charges the Query Manager's parse-and-plan delay (coordination delay,
// not CPU contention — see the Host doc comment).
func (h *Host) begin(p *sim.Proc, relation string, pred core.Predicate) collector {
	d := h.Degraded
	if d == nil {
		d = &faultFree
	}
	h.nextQID++
	qid := h.nextQID
	col := collector{
		h: h, d: d, p: p, qid: qid, relation: relation, pred: pred,
		topo: h.topo, epoch: h.epoch, used: map[int]bool{},
		qspan: h.eng.StartSpan(),
		res:   QueryResult{ID: qid, Pred: pred, Submitted: p.Now()},
	}
	col.mb = sim.NewMailbox[any](h.eng, fmt.Sprintf("host.q%d", qid))
	h.pending[qid] = col.mb
	p.SetQID(qid)
	p.Hold(h.params.InstrTime(h.costs.PlanInstr))
	return col
}

// armDeadline starts the query's end-to-end budget, if the policy has one.
func (col *collector) armDeadline() {
	if d := col.d.Policy.QueryDeadline; d > 0 {
		col.deadline = col.p.Now() + sim.Time(d)
	}
}

// runSelection is the Scheduler for a selection, or for an aggregate (agg
// non-nil) over one: plan and localize via the placement, run BERD's
// auxiliary step when the route calls for it, start (or batch) one
// operator per participant, and collect the results — tuples, or partials
// folded into the aggregate's value — under the host's retry policy (the
// zero policy when Degraded is nil). It blocks for the query's full
// lifetime.
func (h *Host) runSelection(p *sim.Proc, relation string, pred core.Predicate, kind AccessKind, agg *plan.Node) QueryResult {
	placement := h.placement(relation)
	col := h.begin(p, relation, pred)
	col.kind, col.agg = kind, agg
	qid := col.qid
	route := placement.Route(pred)
	if route.EntriesSearched > 0 {
		// Catalog directory search: CS per examined entry (Equation 1's
		// search term).
		p.Hold(sim.Milliseconds(h.costs.CSms * float64(route.EntriesSearched)))
	}
	col.armDeadline()

	// BERD two-step: consult the auxiliary relation first.
	participants := route.Participants
	if len(route.Aux) > 0 {
		auxSpan := h.eng.StartSpan()
		col.res.AuxProcessors = len(route.Aux)
		col.tidsByProc = make(map[int][]int64)
		if outcome, err := col.run(true, route.Aux); outcome != OutcomeOK {
			return col.finish(outcome, err)
		}
		participants = participants[:0]
		for proc := range col.tidsByProc {
			participants = append(participants, proc)
		}
		sort.Ints(participants) // map order is randomized; the schedule must not be
		col.fetchByTID = h.BERDFetchByTID
		if auxSpan.Active() {
			auxSpan.End(obs.NoNode, "query", fmt.Sprintf("q%d aux phase", qid), qid,
				fmt.Sprintf("%d aux nodes -> %d operators", len(route.Aux), len(participants)))
		}
	}

	// Scheduler: one operator per participant, collected under the policy.
	opSpan := h.eng.StartSpan()
	outcome, err := col.run(false, participants)
	if opSpan.Active() {
		opSpan.End(obs.NoNode, "query", fmt.Sprintf("q%d operator phase", qid), qid,
			fmt.Sprintf("%d participants", len(participants)))
	}
	return col.finish(outcome, err)
}

// runJoin is the Scheduler for a Join plan: every slot of the build
// relation's placement scans its fragment of both inputs, and one join
// operator per slot builds and probes, all under the query's captured
// topology and epoch. Both inputs must be declustered over the same slots;
// core.CoLocated inputs join node-locally, others repartition through the
// split table. The inputs' predicates filter the scans (their access
// methods do not apply: a join scans whole fragments).
func (h *Host) runJoin(p *sim.Proc, n *plan.Node) QueryResult {
	buildRel, buildPred, _ := h.resolveSelection(n.Inputs[0])
	probeRel, probePred, _ := h.resolveSelection(n.Inputs[1])
	build, probe := h.placement(buildRel), h.placement(probeRel)
	slots := make([]int, build.Processors())
	if probe.Processors() != len(slots) {
		panic(fmt.Sprintf("exec: join inputs declustered over %d and %d processors",
			len(slots), probe.Processors()))
	}
	for i := range slots {
		slots[i] = i
	}
	col := h.begin(p, buildRel+" join "+probeRel, core.Predicate{})
	col.join = &joinPlan{
		inputs: [2]joinInput{
			phaseBuild: {relation: buildRel, attr: n.Attr, pred: buildPred},
			phaseProbe: {relation: probeRel, attr: n.Attr, pred: probePred},
		},
		local: core.CoLocated(build, probe, n.Attr),
	}
	col.armDeadline()
	outcome, err := col.run(false, slots)
	return col.finish(outcome, err)
}

// countOutcome mirrors a query outcome into the metrics registry.
func (h *Host) countOutcome(o Outcome) {
	switch o {
	case OutcomeOK:
		h.okC.Inc()
	case OutcomeRetried:
		h.retriedC.Inc()
	case OutcomeTimedOut:
		h.timedOutC.Inc()
	case OutcomeFailed:
		h.failedC.Inc()
	}
}
