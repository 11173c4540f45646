package exec

import (
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/sim"
)

// Parallel aggregation is the other dataflow the Gamma substrate runs
// beside selection and join: every participating node computes a partial
// aggregate over its fragment's qualifying tuples (routed and localized
// exactly as the selection would be), and the scheduler's collector
// combines the partials. COUNT/SUM/MIN/MAX decompose exactly this way; AVG
// is SUM/COUNT at the coordinator.

// aggOp asks a node for its partial aggregate of the tuples a selection
// operator would return: the embedded startOp selects the fragment and
// access method (and carries the attempt tag the partial echoes).
type aggOp struct {
	startOp
	Fn   plan.AggFn
	Attr int
}

// aggPartial is one node's contribution.
type aggPartial struct {
	QueryID int64
	Node    int
	Value   int64
	Tuples  int
	Attempt int // echoes aggOp.Attempt
}

func (r aggPartial) attemptID() int { return r.Attempt }

// fold folds x into an aggregate accumulator; first marks acc as holding
// no input yet. COUNT folds 1 per tuple on the nodes and adds partial
// counts at the scheduler, so it shares SUM's addition.
func fold(fn plan.AggFn, acc, x int64, first bool) int64 {
	switch fn {
	case plan.AggMin:
		if first || x < acc {
			return x
		}
		return acc
	case plan.AggMax:
		if first || x > acc {
			return x
		}
		return acc
	default:
		return acc + x
	}
}

// runAggregate computes the node-local partial: the same access path a
// selection would use, then a per-tuple aggregation charge, and a
// fixed-size partial result back to the scheduler. An access error becomes
// an opError report, as for a selection operator.
func (n *Node) runAggregate(p *sim.Proc, req aggOp) {
	p.SetQID(req.QueryID)
	epoch := n.epoch
	h := n.heatFor(req.Relation, req.Backup)
	acc, err := n.selectAccess(req.startOp)
	if err == nil {
		err = n.chargeAccess(p, acc, h)
	}
	if err != nil {
		n.sendError(p, epoch, req.QueryID, req.ReplyTo, req.Attempt, err)
		return
	}
	h.Account(len(acc.IndexPages), len(acc.DataPages), 0, req.Backup)
	n.OpsExecuted++

	var value int64
	for i, t := range acc.Tuples {
		n.CPU.Execute(p, n.costs.JoinProbeInstr) // per-tuple aggregation work
		x := t.Attrs[req.Attr]
		if req.Fn == plan.AggCount {
			x = 1
		}
		value = fold(req.Fn, value, x, i == 0)
	}
	n.send(p, epoch, hw.Message{
		From: n.ID, To: req.ReplyTo, Bytes: controlBytes,
		Payload: aggPartial{QueryID: req.QueryID, Node: n.ID, Value: value,
			Tuples: len(acc.Tuples), Attempt: req.Attempt},
	})
}
