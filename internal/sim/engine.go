// Package sim is a process-oriented discrete-event simulation kernel. It
// plays the role DeNet [Liv88] plays in the paper: model components (disk
// managers, CPU schedulers, network interfaces, relational operators,
// terminals) are written as sequential processes that hold for simulated
// time, use facilities, and exchange messages through mailboxes, while the
// kernel advances a global virtual clock.
//
// Each process runs on its own goroutine, but the kernel hands control to
// exactly one process at a time and every wake-up flows through a single
// event heap ordered by (time, sequence number). Runs are therefore fully
// deterministic for a fixed seed and configuration.
package sim

import (
	"fmt"
	"runtime/debug"

	"repro/internal/obs"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// run. Using a fixed-point representation keeps the event ordering exact.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Milliseconds converts a float64 millisecond count (the unit the paper's
// Table 2 uses) to a Duration, rounding to the nearest nanosecond.
func Milliseconds(ms float64) Duration {
	return Duration(ms*1e6 + 0.5)
}

// Seconds reports t in seconds as a float64, for throughput arithmetic.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Milliseconds reports t in milliseconds as a float64.
func (t Time) Milliseconds() float64 { return float64(t) / 1e6 }

// Milliseconds reports d in milliseconds as a float64.
func (d Duration) Milliseconds() float64 { return float64(d) / 1e6 }

// Seconds reports d in seconds as a float64.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

func (t Time) String() string     { return fmt.Sprintf("%.3fms", t.Milliseconds()) }
func (d Duration) String() string { return fmt.Sprintf("%.3fms", d.Milliseconds()) }

// event is a pooled scheduler record: it resumes a parked process, runs a
// callback closure, or invokes a Handler. Records live in the engine's pool
// and are addressed by index; the heap and ready ring order indices, never
// records, so scheduling allocates nothing once the pool is warm.
type event struct {
	t   Time
	seq uint64
	p   *Proc
	fn  func()
	h   Handler
}

// Handler is the closure-free scheduling target: components with a single
// outstanding timer (a facility's in-service completion, a disk transfer)
// implement it and schedule themselves with ScheduleHandler, storing two
// interface words in the pooled event record instead of allocating a new
// closure per request.
type Handler interface {
	// HandleEvent runs when the scheduled time arrives, in event order,
	// exactly like a Schedule callback.
	HandleEvent()
}

// Engine is the simulation kernel. Create one with New, spawn processes,
// then call Run or RunUntil. An Engine is single-threaded by construction
// and must not be shared across goroutines other than its own processes.
type Engine struct {
	now Time
	seq uint64

	// Event storage: pool is the record arena, free holds recycled slots,
	// eheap orders future events by (time, seq), and ready is a FIFO ring of
	// events due at the current instant. Wake-ups and zero-delay schedules
	// go to the ring — an O(1) append with no heap sift — which is safe
	// because a record due "now" always carries a larger sequence number
	// than any same-time record already in the heap, and the clock cannot
	// advance while the ring is non-empty.
	pool   []event
	free   []int32
	eheap  []int32
	ready  []int32 // power-of-two ring buffer
	rhead  int
	rcount int

	// deadline is the active RunUntil horizon, visible to the Hold fast
	// path so a self-advancing process never runs past it.
	deadline Time

	yielded chan struct{}
	stopped bool
	err     error
	active  int           // processes spawned and not yet finished
	parked  int           // processes blocked with no scheduled event
	sink    obs.Sink      // structured trace sink; nil = tracing disabled
	metrics *obs.Registry // metrics registry; nil = metrics disabled
}

// New returns an empty engine at time zero.
func New() *Engine {
	return &Engine{yielded: make(chan struct{})}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// SetSink installs a structured trace sink receiving typed events from
// facilities, hardware models and the execution layer. Pass nil to disable.
// Tracing is intended for the querytrace tool and tests; the hot path pays
// only a nil check when disabled.
func (e *Engine) SetSink(s obs.Sink) { e.sink = s }

// Sink returns the installed trace sink, or nil.
func (e *Engine) Sink() obs.Sink { return e.sink }

// Tracing reports whether a trace sink is installed. Emitters use it to
// skip event construction (and its string formatting) when tracing is off.
func (e *Engine) Tracing() bool { return e.sink != nil }

// Emit sends a trace event to the sink. The caller fills T (span starts
// may lie in the past; EmitNow stamps the current time). No-op without a
// sink.
func (e *Engine) Emit(ev obs.TraceEvent) {
	if e.sink == nil {
		return
	}
	e.sink.Emit(ev)
}

// EmitNow sends a trace event stamped with the current simulated time.
func (e *Engine) EmitNow(ev obs.TraceEvent) {
	if e.sink == nil {
		return
	}
	ev.T = int64(e.now)
	e.sink.Emit(ev)
}

// SetMetrics attaches a metrics registry. Facilities and higher layers
// fetch their metric handles from it at construction, so the registry must
// be attached before the machine is built. Pass nil to disable (the
// default): a nil registry hands out nil handles whose methods no-op.
func (e *Engine) SetMetrics(r *obs.Registry) { e.metrics = r }

// Metrics returns the attached registry, or nil when metrics are disabled.
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

func (e *Engine) nextSeq() uint64 {
	e.seq++
	return e.seq
}

// alloc places ev in a pooled record and returns its index.
func (e *Engine) alloc(ev event) int32 {
	if n := len(e.free) - 1; n >= 0 {
		idx := e.free[n]
		e.free = e.free[:n]
		e.pool[idx] = ev
		return idx
	}
	e.pool = append(e.pool, ev)
	return int32(len(e.pool) - 1)
}

// release clears a record (dropping its closure/process references) and
// returns its slot to the free list.
func (e *Engine) release(idx int32) {
	e.pool[idx] = event{}
	e.free = append(e.free, idx)
}

// less orders pooled records by (time, sequence).
func (e *Engine) less(a, b int32) bool {
	ea, eb := &e.pool[a], &e.pool[b]
	if ea.t != eb.t {
		return ea.t < eb.t
	}
	return ea.seq < eb.seq
}

// heapPush inserts a record index into the future-event heap.
func (e *Engine) heapPush(idx int32) {
	h := append(e.eheap, idx)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.eheap = h
}

// heapPop removes and returns the minimum record index.
func (e *Engine) heapPop() int32 {
	h := e.eheap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && e.less(h[r], h[l]) {
			c = r
		}
		if !e.less(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	e.eheap = h
	return top
}

// readyPush appends a record index to the current-instant FIFO ring.
func (e *Engine) readyPush(idx int32) {
	if e.rcount == len(e.ready) {
		grown := make([]int32, max(16, 2*len(e.ready)))
		for i := 0; i < e.rcount; i++ {
			grown[i] = e.ready[(e.rhead+i)&(len(e.ready)-1)]
		}
		e.ready = grown
		e.rhead = 0
	}
	e.ready[(e.rhead+e.rcount)&(len(e.ready)-1)] = idx
	e.rcount++
}

// readyPop removes the oldest ring entry. Must only be called when rcount>0.
func (e *Engine) readyPop() int32 {
	idx := e.ready[e.rhead]
	e.rhead = (e.rhead + 1) & (len(e.ready) - 1)
	e.rcount--
	return idx
}

// nextEvent reports the index of the next due event — ring head vs heap
// top by (time, seq) — without removing it. Callers must ensure at least
// one event is pending. Ring entries are due at the current instant and
// necessarily carry larger sequence numbers than same-time heap entries,
// so the heap wins ties.
func (e *Engine) nextEvent() (idx int32, fromRing bool) {
	if e.rcount > 0 && (len(e.eheap) == 0 || !e.less(e.eheap[0], e.ready[e.rhead])) {
		return e.ready[e.rhead], true
	}
	return e.eheap[0], false
}

// schedule pools the event and routes it to the ready ring (events due now)
// or the heap (future events).
func (e *Engine) schedule(ev event) {
	if ev.t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past: %v < %v", ev.t, e.now))
	}
	if ev.t == e.now {
		e.readyPush(e.alloc(ev))
		return
	}
	e.heapPush(e.alloc(ev))
}

// Schedule runs fn at the current time plus d. It may be called from within
// a process or from another callback.
func (e *Engine) Schedule(d Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.schedule(event{t: e.now + Time(d), seq: e.nextSeq(), fn: fn})
}

// ScheduleHandler runs h.HandleEvent at the current time plus d. Unlike
// Schedule it captures no closure: the handler's interface value is stored
// directly in the pooled event record, so a component that embeds its timer
// state schedules with zero allocation.
func (e *Engine) ScheduleHandler(d Duration, h Handler) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.schedule(event{t: e.now + Time(d), seq: e.nextSeq(), h: h})
}

// fail records a fatal error (e.g. a panicking process); Run returns it.
func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.stopped = true
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Resume clears a Stop so Run/RunUntil can continue processing the
// remaining events. It does not clear a recorded process error.
func (e *Engine) Resume() { e.stopped = e.err != nil }

// Run processes events until the heap is empty, Stop is called, or a process
// panics. It returns the first process error, if any. Processes still parked
// on mailboxes when the heap drains are left parked; this is normal for
// server processes.
func (e *Engine) Run() error { return e.RunUntil(Time(1<<62 - 1)) }

// RunUntil processes events with timestamps <= deadline, then sets the clock
// to the deadline (if it advanced that far). See Run for the return value.
func (e *Engine) RunUntil(deadline Time) error {
	e.deadline = deadline
	for !e.stopped && (e.rcount > 0 || len(e.eheap) > 0) {
		next, fromRing := e.nextEvent()
		if e.pool[next].t > deadline {
			e.now = deadline
			return e.err
		}
		var idx int32
		if fromRing {
			idx = e.readyPop()
		} else {
			idx = e.heapPop()
		}
		ev := e.pool[idx]
		e.release(idx)
		e.now = ev.t
		if ev.fn != nil {
			ev.fn()
			continue
		}
		if ev.h != nil {
			ev.h.HandleEvent()
			continue
		}
		if ev.p.finished {
			continue // process already ran to completion or unwound
		}
		ev.p.resume <- struct{}{}
		<-e.yielded
	}
	return e.err
}

// Proc is a simulation process: a goroutine that the kernel runs one at a
// time. All Proc methods must be called from the process's own body.
type Proc struct {
	eng      *Engine
	name     string
	resume   chan struct{}
	killed   bool  // Kill was requested; unwind at next resume
	finished bool  // goroutine has exited (normally, by panic, or by Kill)
	qid      int64 // query the process is currently working for (0 = none)
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Name reports the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// SetQID tags the process with the query it is currently serving; trace
// events emitted for work this process requests (facility services, disk
// transfers) carry the tag, tying resource activity back to queries. Zero
// clears the tag.
func (p *Proc) SetQID(id int64) { p.qid = id }

// QID reports the process's current query tag (0 = none).
func (p *Proc) QID() int64 { return p.qid }

// Spawn creates a process that begins executing fn at the current time
// (after already-scheduled events at this timestamp).
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt creates a process that begins executing fn at time t.
func (e *Engine) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, resume: make(chan struct{})}
	e.active++
	go func() {
		<-p.resume
		defer func() {
			p.finished = true
			e.active--
			if r := recover(); r != nil {
				if r == errKilled {
					// Deliberate teardown via Kill; not an error.
					e.yielded <- struct{}{}
					return
				}
				e.fail(fmt.Errorf("sim: process %q panicked: %v\n%s", name, r, debug.Stack()))
			}
			e.yielded <- struct{}{}
		}()
		fn(p)
	}()
	e.schedule(event{t: t, seq: e.nextSeq(), p: p})
	return p
}

// errKilled is the sentinel panic used to unwind a killed process.
var errKilled = new(int)

// yield returns control to the kernel until the process is resumed.
//
// Direct-switch fast path: when the next due event is a plain process
// resume within the active RunUntil horizon, the yielding process performs
// the kernel's dispatch itself — pop, release, advance the clock — and
// hands control straight to the target (or simply keeps running when the
// target is itself), skipping the two-way handoff through the kernel
// goroutine. The kernel stays blocked on its yielded channel throughout a
// switch chain; exactly one goroutine holds control at any instant, and the
// channel transfers publish all kernel-state writes to the next holder.
// Callback and handler events are never run here: they must execute on the
// kernel goroutine so a panic in one fails the run rather than the
// coincidentally yielding process. Event pop order is identical to the
// kernel loop's, so determinism is unchanged.
func (p *Proc) yield() {
	e := p.eng
	for !e.stopped && (e.rcount > 0 || len(e.eheap) > 0) {
		next, fromRing := e.nextEvent()
		ev := &e.pool[next]
		if ev.t > e.deadline || ev.fn != nil || ev.h != nil {
			break
		}
		if fromRing {
			e.readyPop()
		} else {
			e.heapPop()
		}
		tgt, t := ev.p, ev.t
		e.release(next)
		e.now = t
		if tgt.finished {
			continue // stale event for a completed process
		}
		if tgt == p {
			if p.killed {
				panic(errKilled)
			}
			return
		}
		tgt.resume <- struct{}{}
		<-p.resume
		if p.killed {
			panic(errKilled)
		}
		return
	}
	e.yielded <- struct{}{}
	<-p.resume
	if p.killed {
		panic(errKilled)
	}
}

// Hold advances the process by d simulated time. When the process's own
// wake-up turns out to be the next due event, yield's direct-switch fast
// path advances the clock in place and Hold returns without a single
// goroutine handoff.
func (p *Proc) Hold(d Duration) {
	if d < 0 {
		panic("sim: negative hold")
	}
	e := p.eng
	e.schedule(event{t: e.now + Time(d), seq: e.nextSeq(), p: p})
	p.yield()
}

// park blocks the process with no scheduled wake-up; some other entity must
// call wake. Used by mailboxes, facilities and triggers.
func (p *Proc) Park() {
	p.eng.parked++
	defer func() { p.eng.parked-- }()
	p.yield()
}

// wake schedules the parked process to resume at the current time.
func (e *Engine) Wake(p *Proc) {
	e.schedule(event{t: e.now, seq: e.nextSeq(), p: p})
}

// Kill tears down a parked or held process. The next time the process would
// be resumed it unwinds instead. Killing an already-finished process is a
// no-op. Used by experiment drivers to retire terminal processes.
func (e *Engine) Kill(p *Proc) {
	if p.finished || p.killed {
		return
	}
	p.killed = true
	// If parked (no event scheduled), resume it now so it can unwind.
	e.schedule(event{t: e.now, seq: e.nextSeq(), p: p})
}

// Active reports the number of live processes (running, held, or parked).
func (e *Engine) Active() int { return e.active }

// Parked reports the number of processes blocked with no scheduled event.
func (e *Engine) Parked() int { return e.parked }
