package exec

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sim"
)

// Outcome classifies how a query ended under the scheduler's retry policy.
// The zero value is OutcomeOK; under the zero (fault-free) policy a query
// either completes OK or fails on its first operator error.
type Outcome int

const (
	// OutcomeOK: completed on the first attempt of every operator.
	OutcomeOK Outcome = iota
	// OutcomeRetried: completed, but at least one operator was retried or
	// rerouted to a backup replica.
	OutcomeRetried
	// OutcomeTimedOut: abandoned at its end-to-end deadline.
	OutcomeTimedOut
	// OutcomeFailed: abandoned because an operator exhausted its retry
	// budget or no replica of a fragment was available.
	OutcomeFailed
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeRetried:
		return "retried"
	case OutcomeTimedOut:
		return "timed-out"
	case OutcomeFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Succeeded reports whether the query produced its full result.
func (o Outcome) Succeeded() bool { return o == OutcomeOK || o == OutcomeRetried }

// ServedOp records which node actually served one operator of a query.
// Without faults the serving node is the physical home of the fragment's
// slot; with replicas armed an operator may be rerouted to the chained
// backup, and this attribution is what keeps plan explain output and
// querytrace -frags in agreement.
type ServedOp struct {
	Fragment int  // placement slot whose (primary) fragment the operator targeted
	Node     int  // physical node that actually served the operator
	Backup   bool // true when the chained-replica backup served it
	Aux      bool // BERD auxiliary lookup (step one) rather than a selection
	Tuples   int  // tuples this operator returned (0 for aux lookups)
}

func (s ServedOp) String() string {
	role := "select"
	if s.Aux {
		role = "aux"
	}
	where := fmt.Sprintf("n%d", s.Node)
	if s.Backup {
		where += " (backup)"
	}
	return fmt.Sprintf("%s frag@n%d served by %s: %d tuples", role, s.Fragment, where, s.Tuples)
}

// QueryResult summarizes one executed query.
type QueryResult struct {
	ID             int64
	Pred           core.Predicate
	Tuples         int
	ProcessorsUsed int // distinct processors that did work (aux + operators)
	AuxProcessors  int // BERD first-step processors among them
	Submitted      sim.Time
	Completed      sim.Time

	// ServedBy attributes each operator to the node that served it, in
	// completion order. Under chained-replica rerouting — or mid-migration,
	// when a slot's fragments have moved to a different physical node — the
	// serving node can differ from the slot number.
	ServedBy []ServedOp

	// Value is the aggregate's value for Aggregate-rooted plans submitted
	// through Submit (zero otherwise).
	Value int64

	// Fault accounting (OutcomeOK, 0 and nil for an undisturbed query).
	Outcome Outcome
	Retries int   // operator redispatches (retries + reroutes)
	Err     error // why the query timed out or failed
}

// ResponseMS reports the query's response time in milliseconds.
func (r QueryResult) ResponseMS() float64 {
	return sim.Duration(r.Completed - r.Submitted).Milliseconds()
}

// Host is the scheduler node of Figure 7: it runs the Query Manager (parse,
// plan, localize via the catalog) and the Scheduler (start operators on the
// participating nodes, collect results, commit). Following the paper's
// model — only operator nodes carry CPUs; the Query Manager, Scheduler and
// System Catalog are stand-alone coordination modules — the host's work is
// pure delay on each query's coordinator process rather than contention on
// a shared processor. Per-participant costs (message handling, operator
// start-up) are charged where they belong: on the operator nodes.
type Host struct {
	ID     int // network endpoint (by convention: last)
	net    *hw.Network
	eng    *sim.Engine
	params hw.Params
	costs  Costs

	placements map[string]core.Placement

	// Elastic-membership routing state (zero/nil when elasticity is off).
	// Placements route predicates to slots [0, n); topo maps each slot to
	// the physical node currently holding its fragments (nil = identity),
	// and epoch is the placement generation queries are planned against.
	// Both are replaced atomically at a rebalance cutover; in-flight
	// queries keep the topology and epoch they captured at submit, which
	// nodes honour through the dual-read window.
	topo  []int
	epoch int

	// BERDFetchByTID makes BERD's second step fetch tuples by TID instead
	// of re-executing the predicate through each identified processor's
	// local index (the default, per Section 2: the system "directs the
	// query to these processors"). TID fetching is kept as an ablation: it
	// saves the index probe but costs one random I/O per tuple.
	BERDFetchByTID bool

	// Degraded sets the scheduler's fault handling: per-query deadlines,
	// per-operator timeouts, bounded jittered retry, and chained-replica
	// rerouting. Nil (the default) schedules under the zero RetryPolicy —
	// no timers, no retries, no replicas — which leaves the event schedule
	// byte-identical to a build without fault support.
	Degraded *Degraded

	// Shared is the shared-scan manager (nil = sharing off, the default):
	// when armed via EnableSharing, concurrent selections targeting the
	// same fragment within the batching window are predicate-grouped into
	// one disk pass. Composes with Degraded and with elastic membership:
	// batches are keyed by replica role and placement epoch.
	Shared *SharedScans

	// accessPolicy resolves plan.AccessAuto scans per relation (set via
	// SetAccessPolicy, typically from the workload mix's chooser).
	accessPolicy map[string]AccessChooser

	nextQID     int64
	nextAttempt int
	pending     map[int64]*sim.Mailbox[any]

	// Stats.
	QueriesRun int64
	Orphans    int64 // late/duplicate results for queries no longer pending

	// Registry handles (nil-safe when metrics are disabled).
	completedC *obs.Counter
	fanoutH    *obs.Histogram
	respH      *obs.Histogram
	retriesC   *obs.Counter
	orphanC    *obs.Counter
	okC        *obs.Counter
	retriedC   *obs.Counter
	timedOutC  *obs.Counter
	failedC    *obs.Counter
}

// NewHost wires the scheduler node. Relations are attached with
// AddRelation and queried through Submit.
func NewHost(eng *sim.Engine, id int, params hw.Params, net *hw.Network, costs Costs) *Host {
	h := &Host{
		ID: id, net: net, eng: eng,
		params: params, costs: costs,
		placements:   make(map[string]core.Placement),
		accessPolicy: make(map[string]AccessChooser),
		pending:      make(map[int64]*sim.Mailbox[any]),
	}
	if reg := eng.Metrics(); reg != nil {
		h.completedC = reg.Counter("query.completed")
		h.fanoutH = reg.Histogram("query.fanout_nodes")
		h.respH = reg.Histogram("query.response_ms")
		h.retriesC = reg.Counter("query.retries")
		h.orphanC = reg.Counter("query.orphan_results")
		h.okC = reg.Counter("query.outcome_ok")
		h.retriedC = reg.Counter("query.outcome_retried")
		h.timedOutC = reg.Counter("query.outcome_timed_out")
		h.failedC = reg.Counter("query.outcome_failed")
	}
	return h
}

// AddRelation registers a declustered relation with the Query Manager.
func (h *Host) AddRelation(name string, pl core.Placement) {
	if _, dup := h.placements[name]; dup {
		panic(fmt.Sprintf("exec: relation %q already registered", name))
	}
	h.placements[name] = pl
}

// SetPlacement replaces a relation's placement at a rebalance cutover.
// Unlike AddRelation it requires the relation to exist already.
func (h *Host) SetPlacement(name string, pl core.Placement) {
	if _, ok := h.placements[name]; !ok {
		panic(fmt.Sprintf("exec: SetPlacement of unregistered relation %q", name))
	}
	h.placements[name] = pl
}

// SetTopology installs the slot→physical routing and placement generation
// of a freshly cut-over membership. topo[i] is the physical node serving
// slot i; epoch must advance by exactly one generation per cutover.
func (h *Host) SetTopology(topo []int, epoch int) {
	if epoch != h.epoch+1 {
		panic(fmt.Sprintf("exec: SetTopology to epoch %d from %d", epoch, h.epoch))
	}
	h.topo = topo
	h.epoch = epoch
}

// Epoch reports the host's current placement generation.
func (h *Host) Epoch() int { return h.epoch }

// physOf maps a placement slot to the physical node serving it.
func physOf(topo []int, slot int) int {
	if topo == nil {
		return slot
	}
	return topo[slot]
}

// Start launches the host's message dispatcher, which demultiplexes operator
// and auxiliary results to the coordinator process of the owning query.
func (h *Host) Start() {
	h.eng.Spawn("host.dispatch", func(p *sim.Proc) {
		inbox := h.net.Inbox(h.ID)
		for {
			m := inbox.Get(p)
			var qid int64
			switch r := m.Payload.(type) {
			case opResult:
				qid = r.QueryID
			case opError:
				qid = r.QueryID
			case auxResult:
				qid = r.QueryID
			case joinDone:
				qid = r.QueryID
			case aggPartial:
				qid = r.QueryID
			case nil:
				continue // multi-packet fragment; payload rides the last one
			default:
				panic(fmt.Sprintf("exec: host: unexpected message %T", r))
			}
			mb, ok := h.pending[qid]
			if !ok {
				// Late or duplicated reply for a query the scheduler
				// already finished (or abandoned): expected under timeouts,
				// crashes and message duplication, and without faults when
				// one node refuses a query while its other operators are
				// still answering.
				h.Orphans++
				h.orphanC.Inc()
				continue
			}
			mb.Put(m.Payload)
		}
	})
}

// AccessChooser maps a predicate to the access method its operators use;
// the workload defines it (Section 6: non-clustered index on A, clustered
// index on B).
type AccessChooser func(pred core.Predicate) AccessKind

// SetAccessPolicy installs the resolver for plan.AccessAuto scans of a
// relation (typically the workload mix's chooser). Submit panics on an
// AccessAuto scan of a relation with no policy.
func (h *Host) SetAccessPolicy(relation string, chooser AccessChooser) {
	h.accessPolicy[relation] = chooser
}

// fullDomain is the predicate a bare (predicate-free) Scan leaf executes:
// every tuple of the relation qualifies.
func fullDomain() core.Predicate {
	return core.Predicate{Attr: 0, Lo: math.MinInt64, Hi: math.MaxInt64}
}

// resolveSelection lowers a selection subtree to (relation, predicate,
// access kind), applying the full-domain predicate to bare scans and the
// relation's access policy to AccessAuto.
func (h *Host) resolveSelection(n *plan.Node) (string, core.Predicate, AccessKind) {
	sel, err := plan.CompileSelection(n)
	if err != nil {
		panic(fmt.Sprintf("exec: %v", err))
	}
	pred := sel.Pred
	if !sel.HasPred {
		pred = fullDomain()
	}
	kind := sel.Access
	if kind == plan.AccessAuto {
		chooser := h.accessPolicy[sel.Relation]
		if chooser == nil {
			panic(fmt.Sprintf("exec: AccessAuto scan of %q but no access policy set", sel.Relation))
		}
		kind = chooser(pred)
	}
	return sel.Relation, pred, kind
}

// Submit is the only way to execute a query: it runs a declarative plan
// tree to completion from the calling process (a terminal) and returns the
// query's statistics. Every plan shape runs on the scheduler's one
// collector, under the host's retry policy, placement epoch and tracing:
//   - a selection tree (Filter chains over a Scan/IndexScan leaf) runs one
//     operator per participant — BERD's auxiliary step first when the
//     route calls for it, shared-scan batches when the manager is armed;
//   - an Aggregate root runs the same routed phase with partial-aggregate
//     operators (Tuples reports matched tuples, Value the aggregate);
//   - a Join root runs the parallel hash join, one operator per slot
//     (Tuples reports the match count). Its repartitioned streams cannot
//     be replayed one operator at a time, so a join is never retried: it
//     waits under the query deadline only and fails on its first operator
//     error.
//
// Invalid or non-executable plans panic: a plan error is a programming
// error, not a runtime fault.
func (h *Host) Submit(p *sim.Proc, n *plan.Node) QueryResult {
	if err := n.Validate(); err != nil {
		panic(fmt.Sprintf("exec: invalid plan: %v", err))
	}
	switch n.Kind {
	case plan.KindJoin:
		return h.runJoin(p, n)
	case plan.KindAggregate:
		relation, pred, kind := h.resolveSelection(n.Inputs[0])
		return h.runSelection(p, relation, pred, kind, n)
	default:
		relation, pred, kind := h.resolveSelection(n)
		return h.runSelection(p, relation, pred, kind, nil)
	}
}
