package sim

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Facility is a single-server queueing station with FCFS service within a
// priority class and higher priority classes served first (non-preemptive:
// an in-service request always completes). It models the paper's CPU module
// ("FCFS non-preemptive scheduling on all requests, except for byte
// transfers to/from the disk's FIFO buffer", which we map to a high-priority
// class) and the FCFS network interfaces.
//
// The wait queue is an intrusive singly-linked list of pooled request
// nodes, and service completion is scheduled through the engine's Handler
// path, so steady-state operation allocates nothing: nodes recycle through
// a per-facility free list and the single in-service request lives in a
// struct field instead of a per-completion closure.
type Facility struct {
	eng  *Engine
	name string

	// Observability identity: which node and resource class the facility
	// belongs to (SetMeta). Defaults place it on no node as "facility".
	node     int
	category string

	busy     bool
	qhead    *facRequest // waiting requests (excludes in-service)
	qtail    *facRequest
	qlenN    int
	cur      *facRequest // request in service
	curSpan  Span
	freeReqs *facRequest // recycled nodes
	nextSeq  uint64

	util    stats.TimeWeighted // 0/1 busy indicator over time
	qlen    stats.TimeWeighted // queue length (excluding in service)
	served  int64
	svcTime stats.Accumulator // service durations, ms
	wait    stats.Accumulator // queueing delays (excluding service), ms

	// Registry handles (nil when the engine has no metrics registry; all
	// methods no-op on nil).
	waitH *obs.Histogram
	svcH  *obs.Histogram
}

type facRequest struct {
	p       *Proc
	service Duration
	prio    int
	seq     uint64
	arrived Time
	qid     int64
	next    *facRequest
}

// NewFacility creates a facility attached to the engine. When the engine
// carries a metrics registry, the facility registers "<name>.wait_ms" and
// "<name>.service_ms" latency histograms separating queueing delay from
// service time.
func NewFacility(e *Engine, name string) *Facility {
	f := &Facility{eng: e, name: name, node: obs.NoNode, category: "facility"}
	f.util.Set(float64(e.now), 0)
	f.qlen.Set(float64(e.now), 0)
	if reg := e.Metrics(); reg != nil {
		f.waitH = reg.Histogram(name + ".wait_ms")
		f.svcH = reg.Histogram(name + ".service_ms")
	}
	return f
}

// Name reports the facility name.
func (f *Facility) Name() string { return f.name }

// SetMeta records which node and resource category ("cpu", "net", ...) the
// facility represents; trace events it emits land on that track.
func (f *Facility) SetMeta(node int, category string) {
	f.node = node
	f.category = category
}

// Use requests service time from the facility at default priority and blocks
// the calling process until the service completes.
func (f *Facility) Use(p *Proc, service Duration) { f.UsePriority(p, service, 0) }

// UsePriority requests service at the given priority. Larger priorities are
// served first; ties are FCFS.
func (f *Facility) UsePriority(p *Proc, service Duration, prio int) {
	if service < 0 {
		panic(fmt.Sprintf("sim: facility %s: negative service time", f.name))
	}
	req := f.newRequest()
	f.nextSeq++
	req.p, req.service, req.prio = p, service, prio
	req.seq, req.arrived, req.qid = f.nextSeq, f.eng.now, p.qid
	if f.busy {
		f.enqueue(req)
		f.qlen.Set(float64(f.eng.now), float64(f.qlenN))
		p.Park() // woken when our service completes
		return
	}
	f.serve(req)
	p.Park()
}

// newRequest takes a node from the free list, or grows the pool.
func (f *Facility) newRequest() *facRequest {
	if req := f.freeReqs; req != nil {
		f.freeReqs = req.next
		req.next = nil
		return req
	}
	return new(facRequest)
}

// recycle clears a node's references and returns it to the free list.
func (f *Facility) recycle(req *facRequest) {
	*req = facRequest{next: f.freeReqs}
	f.freeReqs = req
}

// enqueue inserts by (priority desc, seq asc). The common case — a request
// at or below the tail's priority — appends in O(1).
func (f *Facility) enqueue(req *facRequest) {
	f.qlenN++
	if f.qtail == nil {
		f.qhead, f.qtail = req, req
		return
	}
	if f.qtail.prio >= req.prio {
		f.qtail.next = req
		f.qtail = req
		return
	}
	if f.qhead.prio < req.prio {
		req.next = f.qhead
		f.qhead = req
		return
	}
	cur := f.qhead
	for cur.next != nil && cur.next.prio >= req.prio {
		cur = cur.next
	}
	req.next = cur.next
	cur.next = req
	if req.next == nil {
		f.qtail = req
	}
}

// dequeue removes and returns the head of the wait queue, or nil.
func (f *Facility) dequeue() *facRequest {
	req := f.qhead
	if req == nil {
		return nil
	}
	f.qhead = req.next
	if f.qhead == nil {
		f.qtail = nil
	}
	req.next = nil
	f.qlenN--
	return req
}

// serve starts service for req and schedules its completion (HandleEvent).
func (f *Facility) serve(req *facRequest) {
	f.busy = true
	f.cur = req
	now := f.eng.now
	f.util.Set(float64(now), 1)
	f.curSpan = f.eng.StartSpan()
	waitMS := Duration(now - req.arrived).Milliseconds()
	f.wait.Add(waitMS)
	f.waitH.Observe(waitMS)
	f.eng.ScheduleHandler(req.service, f)
}

// HandleEvent completes the in-service request: it wakes the owner,
// recycles the request node, and starts the next queued request. It
// implements the engine's Handler interface and is not meant to be called
// directly.
func (f *Facility) HandleEvent() {
	req := f.cur
	f.served++
	f.svcTime.Add(req.service.Milliseconds())
	f.svcH.Observe(req.service.Milliseconds())
	f.curSpan.End(f.node, f.category, req.p.name, req.qid, "")
	f.eng.Wake(req.p)
	f.recycle(req)
	if next := f.dequeue(); next != nil {
		f.qlen.Set(float64(f.eng.now), float64(f.qlenN))
		f.serve(next)
	} else {
		f.cur = nil
		f.busy = false
		f.util.Set(float64(f.eng.now), 0)
	}
}

// QueueLen reports the number of waiting (not in service) requests.
func (f *Facility) QueueLen() int { return f.qlenN }

// Served reports the number of completed services.
func (f *Facility) Served() int64 { return f.served }

// Utilization reports the fraction of time the facility was busy up to now.
func (f *Facility) Utilization() float64 { return f.util.Mean(float64(f.eng.now)) }

// BusySeconds reports cumulative busy time in simulated seconds since the
// last stats reset. Windowed utilization probes difference two readings:
// delta busy-seconds over delta sim-seconds is the utilization of exactly
// that window.
func (f *Facility) BusySeconds() float64 { return f.util.Integral(float64(f.eng.now)) / 1e9 }

// MeanQueueLen reports the time-average queue length up to now.
func (f *Facility) MeanQueueLen() float64 { return f.qlen.Mean(float64(f.eng.now)) }

// MeanWaitMS reports the mean queueing delay in milliseconds.
func (f *Facility) MeanWaitMS() float64 { return f.wait.Mean() }

// MeanServiceMS reports the mean service time in milliseconds.
func (f *Facility) MeanServiceMS() float64 { return f.svcTime.Mean() }

// ResetStats restarts utilization/queue-length averaging at the current time
// and clears counters and registered histograms; used to discard warm-up
// transients.
func (f *Facility) ResetStats() {
	f.util.ResetAt(float64(f.eng.now))
	f.qlen.ResetAt(float64(f.eng.now))
	f.served = 0
	f.svcTime.Reset()
	f.wait.Reset()
	f.waitH.Reset()
	f.svcH.Reset()
}
