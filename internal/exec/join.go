package exec

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/storage"
)

// The parallel hash join is the Gamma substrate's signature dataflow (the
// paper's Operator Manager "models the relational operators"): the build
// relation is scanned in parallel on its home nodes and repartitioned by
// hashing the join attribute through a split table; the receiving join
// operators build in-memory hash tables; the probe relation streams through
// the same split table and probes. End-of-stream control messages close
// each phase, exactly as Gamma's split tables did.
//
// When both relations are hash-declustered on the join attribute with the
// same randomizing function (core.CoLocated), the split table degenerates
// to the identity and the join runs entirely node-locally — the
// join-locality benefit of declustering by join key.

// join message types.
type joinPhase int

const (
	phaseBuild joinPhase = iota
	phaseProbe
)

// joinTarget is one join-operator slot of a query: the physical node the
// operator runs on and the attempt tag its joinDone echoes.
type joinTarget struct {
	Node    int
	Attempt int
}

// joinScan asks a node to scan its fragment of one join input (the
// fragment of placement slot Slot) and route tuples through the split
// table to the query's join operators.
type joinScan struct {
	QueryID  int64
	Relation string
	Attr     int
	Phase    joinPhase
	Pred     core.Predicate
	// Local, when true, short-circuits the split table: every tuple stays
	// with the scanning slot's own operator (co-located join).
	Local   bool
	Slot    int
	Targets []joinTarget // one per slot; every slot also scans each input
	ReplyTo int
	Epoch   int // placement generation, as startOp.Epoch
}

// joinOperator addresses one join operator. Batches and end-of-stream
// markers carry it so the receiving node can start the operator even when
// a remote batch outruns its own scan request.
type joinOperator struct {
	QueryID  int64
	ReplyTo  int
	Scanners int
	Attempt  int
}

// joinBatch carries repartitioned tuples to a join operator.
type joinBatch struct {
	joinOperator
	Phase  joinPhase
	Attr   int
	Tuples []storage.Tuple
}

// joinEnd signals that one scanner has finished a phase.
type joinEnd struct {
	joinOperator
	Phase joinPhase
}

// joinDone reports one join operator's matches to the scheduler.
type joinDone struct {
	QueryID int64
	Node    int
	Matches int
	Attempt int // echoes the operator slot's joinTarget.Attempt
}

func (r joinDone) attemptID() int { return r.Attempt }

// joinWorker is the per-node join operator for one query: it owns the hash
// table and a private mailbox through which the Operator Manager feeds it
// batches and end-of-stream markers.
type joinWorker struct {
	inbox *sim.Mailbox[any]
}

// routeJoinMsg delivers a join message to the query's worker, creating it
// on first contact.
func (n *Node) routeJoinMsg(op joinOperator, msg any) {
	w := n.joins[op.QueryID]
	if w == nil {
		w = &joinWorker{inbox: sim.NewMailbox[any](n.eng, fmt.Sprintf("node%d.join.q%d", n.ID, op.QueryID))}
		n.joins[op.QueryID] = w
		n.eng.Spawn(fmt.Sprintf("node%d.joinop.q%d", n.ID, op.QueryID), func(p *sim.Proc) {
			n.runJoinOperator(p, op, w)
			delete(n.joins, op.QueryID)
		})
	}
	w.inbox.Put(msg)
}

// runJoinScan scans the slot's fragment of one join input and routes each
// tuple through the split table (hash on the join attribute modulo the
// number of join operators), batching per destination. A final joinEnd goes
// to every join operator so it can detect end-of-stream — also after a
// failed scan, which reports its error to the scheduler and ships nothing.
func (n *Node) runJoinScan(p *sim.Proc, req joinScan) {
	p.SetQID(req.QueryID)
	epoch := n.epoch
	h := n.heatFor(req.Relation, false)
	var acc storage.Access
	frag, err := n.fragmentFor(req.Relation, false, req.Epoch)
	if err == nil {
		acc = frag.Scan(req.Pred.Attr, req.Pred.Lo, req.Pred.Hi)
		err = n.chargeAccess(p, acc, h)
	}
	if err != nil {
		n.sendError(p, epoch, req.QueryID, req.ReplyTo, req.Targets[req.Slot].Attempt, err)
		acc.Tuples = nil
	} else {
		h.Account(len(acc.IndexPages), len(acc.DataPages), 0, false)
		n.OpsExecuted++
	}

	// Split table: partition the qualifying tuples by join-attribute hash.
	buckets := make([][]storage.Tuple, len(req.Targets))
	for _, t := range acc.Tuples {
		slot := req.Slot
		if !req.Local {
			slot = core.JoinBucket(t.Attrs[req.Attr], len(req.Targets))
		}
		buckets[slot] = append(buckets[slot], t)
		n.CPU.Execute(p, n.costs.JoinHashInstr)
	}
	operator := func(slot int) (int, joinOperator) {
		tgt := req.Targets[slot]
		return tgt.Node, joinOperator{QueryID: req.QueryID, ReplyTo: req.ReplyTo,
			Scanners: len(req.Targets), Attempt: tgt.Attempt}
	}
	for slot, tuples := range buckets {
		if len(tuples) == 0 {
			continue
		}
		dst, op := operator(slot)
		n.TuplesShipped += int64(len(tuples))
		batch := joinBatch{joinOperator: op, Phase: req.Phase, Attr: req.Attr, Tuples: tuples}
		if dst == n.ID {
			// Local delivery: no network, straight to the worker.
			n.routeJoinMsg(op, batch)
			continue
		}
		n.net.Send(p, n.CPU, hw.Message{
			From: n.ID, To: dst,
			Bytes:   n.params.TupleBytes(len(tuples)) + controlBytes,
			Payload: batch,
		})
	}
	// End-of-stream to every join operator.
	for slot := range req.Targets {
		dst, op := operator(slot)
		end := joinEnd{joinOperator: op, Phase: req.Phase}
		if dst == n.ID {
			n.routeJoinMsg(op, end)
			continue
		}
		n.net.Send(p, n.CPU, hw.Message{
			From: n.ID, To: dst, Bytes: controlBytes, Payload: end,
		})
	}
}

// runJoinOperator consumes build batches into a hash table, then probes it
// with the probe stream, and finally reports its match count to the
// scheduler. Probe batches arriving before the build phase has fully closed
// are buffered, preserving the build-before-probe barrier without global
// synchronization.
func (n *Node) runJoinOperator(p *sim.Proc, op joinOperator, w *joinWorker) {
	epoch := n.epoch
	table := make(map[int64][]storage.Tuple)
	var pendingProbe []joinBatch
	buildEnds, probeEnds := 0, 0
	matches := 0
	built := false

	probe := func(b joinBatch) {
		for _, t := range b.Tuples {
			n.CPU.Execute(p, n.costs.JoinProbeInstr)
			matches += len(table[t.Attrs[b.Attr]])
		}
	}

	for buildEnds < op.Scanners || probeEnds < op.Scanners {
		switch m := w.inbox.Get(p).(type) {
		case joinBatch:
			if m.Phase == phaseBuild {
				for _, t := range m.Tuples {
					n.CPU.Execute(p, n.costs.JoinBuildInstr)
					table[t.Attrs[m.Attr]] = append(table[t.Attrs[m.Attr]], t)
				}
			} else if built {
				probe(m)
			} else {
				pendingProbe = append(pendingProbe, m)
			}
		case joinEnd:
			if m.Phase == phaseBuild {
				buildEnds++
				if buildEnds == op.Scanners {
					built = true
					for _, b := range pendingProbe {
						probe(b)
					}
					pendingProbe = nil
				}
			} else {
				probeEnds++
			}
		default:
			panic(fmt.Sprintf("exec: join operator got %T", m))
		}
	}
	n.OpsExecuted++
	// Ship the result (matched pairs) with the completion report.
	bytes := matches*2*n.params.TupleSize + controlBytes
	n.send(p, epoch, hw.Message{
		From: n.ID, To: op.ReplyTo, Bytes: bytes,
		Payload: joinDone{QueryID: op.QueryID, Node: n.ID, Matches: matches, Attempt: op.Attempt},
	})
}
