// Package fault is the deterministic fault-injection subsystem. A Spec
// describes what goes wrong — scheduled fail-stop disks, transient I/O
// errors, latency degradation, node crash/restart windows, interconnect
// drop/duplication — and an Injector turns it into ordinary simulation
// events against the hardware and execution layers, so a run with a fixed
// seed and spec is exactly reproducible: same fault-event log, same figure
// output. With no spec armed, nothing in this package touches the
// simulation and runs stay byte-identical to a fault-free build.
//
// The package deliberately knows nothing about the concrete hardware or
// executor types: targets are small interfaces (DiskTarget, NodeTarget,
// NetTarget) that hw.Disk, exec.Node and hw.Network satisfy, which keeps
// the dependency arrow pointing from the machine assembly (internal/gamma)
// into here rather than the other way around.
package fault

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Kind enumerates the fault-event taxonomy (DESIGN.md §8).
type Kind int

const (
	// DiskFail fail-stops a node's disk: queued and in-flight requests
	// abort and new requests are rejected until DiskRepair.
	DiskFail Kind = iota
	// DiskRepair brings a fail-stopped disk back.
	DiskRepair
	// DiskTransient makes the disk's next Count reads fail once each.
	DiskTransient
	// DiskDegrade multiplies the disk's mechanism time by Factor (for Dur,
	// if set; Factor <= 1 restores nominal service).
	DiskDegrade
	// NodeCrash fail-silences a node: its inbox drops traffic and in-flight
	// operators' replies are suppressed, until NodeRestart.
	NodeCrash
	// NodeRestart brings a crashed node back (losing nothing but the
	// messages that arrived while it was down).
	NodeRestart
	// NetDrop discards the next Count logical messages addressed to Node.
	NetDrop
	// NetDup delivers the next Count logical messages addressed to Node
	// twice.
	NetDup
)

var kindNames = [...]string{
	DiskFail:      "disk-fail",
	DiskRepair:    "disk-repair",
	DiskTransient: "disk-transient",
	DiskDegrade:   "disk-degrade",
	NodeCrash:     "node-crash",
	NodeRestart:   "node-restart",
	NetDrop:       "net-drop",
	NetDup:        "net-dup",
}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Event is one scheduled fault.
type Event struct {
	At   sim.Duration `json:"at"` // offset from the start of the run
	Kind Kind         `json:"kind"`
	Node int          `json:"node"`
	// Count sizes DiskTransient/NetDrop/NetDup bursts (default 1).
	Count int `json:"count,omitempty"`
	// Factor is the DiskDegrade latency multiplier (default 4).
	Factor float64 `json:"factor,omitempty"`
	// Dur bounds window kinds: a DiskFail/NodeCrash/DiskDegrade with Dur > 0
	// schedules its own repair/restart/restore Dur later. Dur == 0 means
	// the condition holds for the rest of the run.
	Dur sim.Duration `json:"dur,omitempty"`
}

func (e Event) count() int {
	if e.Count <= 0 {
		return 1
	}
	return e.Count
}

func (e Event) factor() float64 {
	if e.Factor <= 0 {
		return 4
	}
	return e.Factor
}

// Spec is a complete fault schedule for one run.
type Spec struct {
	// Events are applied at their At offsets, in slice order for equal
	// offsets.
	Events []Event `json:"events,omitempty"`
	// MTBF > 0 arms stochastic transient read errors: each disk draws
	// exponentially distributed inter-fault gaps with this mean from its
	// own rng stream, and at each fault its next read fails once.
	MTBF sim.Duration `json:"mtbf,omitempty"`
	// NetDropP / NetDupP are per-logical-message probabilities of loss and
	// duplication on the interconnect, drawn from a dedicated rng stream.
	NetDropP float64 `json:"net_drop_p,omitempty"`
	NetDupP  float64 `json:"net_dup_p,omitempty"`
}

// Enabled reports whether the spec injects anything at all.
func (s *Spec) Enabled() bool {
	return s != nil && (len(s.Events) > 0 || s.MTBF > 0 || s.NetDropP > 0 || s.NetDupP > 0)
}

// Validate checks the spec against a machine of the given node count.
func (s *Spec) Validate(nodes int) error {
	if s == nil {
		return nil
	}
	for i, ev := range s.Events {
		if ev.At < 0 {
			return fmt.Errorf("fault: event %d: negative offset %v", i, ev.At)
		}
		if ev.Kind < 0 || int(ev.Kind) >= len(kindNames) {
			return fmt.Errorf("fault: event %d: unknown kind %d", i, int(ev.Kind))
		}
		if ev.Node < 0 || ev.Node >= nodes {
			return fmt.Errorf("fault: event %d: node %d out of range [0,%d)", i, ev.Node, nodes)
		}
		if ev.Dur < 0 {
			return fmt.Errorf("fault: event %d: negative duration %v", i, ev.Dur)
		}
	}
	if s.MTBF < 0 {
		return fmt.Errorf("fault: negative MTBF %v", s.MTBF)
	}
	if s.NetDropP < 0 || s.NetDropP > 1 || s.NetDupP < 0 || s.NetDupP > 1 {
		return fmt.Errorf("fault: drop/dup probabilities must be in [0,1]")
	}
	return nil
}

// Record is one applied fault in the run's fault-event log. The log is part
// of the determinism contract: two runs with the same seed and spec produce
// identical logs.
type Record struct {
	T      int64  `json:"t_ns"` // simulation time the fault was applied
	Kind   string `json:"kind"`
	Node   int    `json:"node"`
	Detail string `json:"detail,omitempty"`
}

// View is the host's (instantaneously consistent) picture of which nodes
// can serve requests; degraded-mode routing consults it before dispatching.
// The injector keeps it in step with the faults it applies.
type View struct {
	diskOK []bool
	nodeUp []bool
}

// NewView creates an all-healthy view over nodes nodes.
func NewView(nodes int) *View {
	v := &View{diskOK: make([]bool, nodes), nodeUp: make([]bool, nodes)}
	for i := range v.diskOK {
		v.diskOK[i] = true
		v.nodeUp[i] = true
	}
	return v
}

// Nodes reports the machine size the view covers.
func (v *View) Nodes() int { return len(v.diskOK) }

// Available reports whether the node can serve fragment requests: it is up
// and its disk works.
func (v *View) Available(node int) bool { return v.nodeUp[node] && v.diskOK[node] }

// SetDisk updates the disk-health belief for a node.
func (v *View) SetDisk(node int, ok bool) { v.diskOK[node] = ok }

// SetNode updates the liveness belief for a node.
func (v *View) SetNode(node int, up bool) { v.nodeUp[node] = up }

// DiskTarget is the disk surface the injector drives; hw.Disk satisfies it.
type DiskTarget interface {
	Fail()
	Repair()
	FailNextReads(n int)
	SetLatencyFactor(f float64)
}

// NodeTarget is the node surface the injector drives; exec.Node satisfies
// it.
type NodeTarget interface {
	Crash()
	Restart()
}

// NetTarget is the interconnect surface the injector drives; hw.Network
// satisfies it.
type NetTarget interface {
	DropNext(node, k int)
	DupNext(node, k int)
}

// Targets binds the injector to one machine's concrete components. Nil
// entries (or a nil Net) make the corresponding event kinds no-ops, which
// keeps partial test rigs easy to build.
type Targets struct {
	Disks []DiskTarget
	Nodes []NodeTarget
	Net   NetTarget
}

// Injector applies a Spec to a machine as ordinary simulation events.
type Injector struct {
	eng     *sim.Engine
	spec    Spec
	view    *View
	targets Targets
	streams *rng.Factory

	log     []Record
	faultsC *obs.Counter

	// OnEvent, when non-nil, observes every applied fault event after its
	// effect has taken hold. The machine layer uses it to promote permanent
	// node failures into rebalancer repair tasks.
	OnEvent func(Event)
}

// NewInjector builds an injector. streams supplies the MTBF processes'
// per-disk rng streams ("fault.mtbf.<node>"); it may be nil when the spec
// schedules explicit events only.
func NewInjector(eng *sim.Engine, spec Spec, view *View, targets Targets, streams *rng.Factory) *Injector {
	in := &Injector{eng: eng, spec: spec, view: view, targets: targets, streams: streams}
	if reg := eng.Metrics(); reg != nil {
		in.faultsC = reg.Counter("fault.injected")
	}
	return in
}

// Start schedules every event in the spec and spawns the MTBF fault
// processes. Call once, before the run begins.
func (in *Injector) Start() {
	for _, ev := range in.spec.Events {
		ev := ev
		in.eng.Schedule(ev.At, func() { in.apply(ev) })
	}
	if in.spec.MTBF > 0 && in.streams != nil {
		for i := range in.targets.Disks {
			i := i
			src := in.streams.Stream(fmt.Sprintf("fault.mtbf.%d", i))
			in.eng.Spawn(fmt.Sprintf("fault.mtbf.%d", i), func(p *sim.Proc) {
				for {
					p.Hold(sim.Duration(src.Exponential(float64(in.spec.MTBF))))
					if d := in.disk(i); d != nil {
						d.FailNextReads(1)
						in.record(DiskTransient, i, "mtbf")
					}
				}
			})
		}
	}
}

func (in *Injector) disk(node int) DiskTarget {
	if node < 0 || node >= len(in.targets.Disks) {
		return nil
	}
	return in.targets.Disks[node]
}

func (in *Injector) node(node int) NodeTarget {
	if node < 0 || node >= len(in.targets.Nodes) {
		return nil
	}
	return in.targets.Nodes[node]
}

// apply performs one event now, updates the host view, logs it, and — for
// window events — schedules the complementary restore.
func (in *Injector) apply(ev Event) {
	detail := ""
	switch ev.Kind {
	case DiskFail:
		if d := in.disk(ev.Node); d != nil {
			d.Fail()
		}
		in.view.SetDisk(ev.Node, false)
		if ev.Dur > 0 {
			restore := Event{At: ev.Dur, Kind: DiskRepair, Node: ev.Node}
			in.eng.Schedule(ev.Dur, func() { in.apply(restore) })
			detail = fmt.Sprintf("for %v", ev.Dur)
		}
	case DiskRepair:
		if d := in.disk(ev.Node); d != nil {
			d.Repair()
		}
		in.view.SetDisk(ev.Node, true)
	case DiskTransient:
		if d := in.disk(ev.Node); d != nil {
			d.FailNextReads(ev.count())
		}
		detail = fmt.Sprintf("next %d reads", ev.count())
	case DiskDegrade:
		f := ev.factor()
		if d := in.disk(ev.Node); d != nil {
			d.SetLatencyFactor(f)
		}
		detail = fmt.Sprintf("x%.2g", f)
		if ev.Dur > 0 && f > 1 {
			restore := Event{At: ev.Dur, Kind: DiskDegrade, Node: ev.Node, Factor: 1}
			in.eng.Schedule(ev.Dur, func() { in.apply(restore) })
			detail += fmt.Sprintf(" for %v", ev.Dur)
		}
	case NodeCrash:
		if n := in.node(ev.Node); n != nil {
			n.Crash()
		}
		in.view.SetNode(ev.Node, false)
		if ev.Dur > 0 {
			restore := Event{At: ev.Dur, Kind: NodeRestart, Node: ev.Node}
			in.eng.Schedule(ev.Dur, func() { in.apply(restore) })
			detail = fmt.Sprintf("for %v", ev.Dur)
		}
	case NodeRestart:
		if n := in.node(ev.Node); n != nil {
			n.Restart()
		}
		in.view.SetNode(ev.Node, true)
	case NetDrop:
		if in.targets.Net != nil {
			in.targets.Net.DropNext(ev.Node, ev.count())
		}
		detail = fmt.Sprintf("next %d msgs", ev.count())
	case NetDup:
		if in.targets.Net != nil {
			in.targets.Net.DupNext(ev.Node, ev.count())
		}
		detail = fmt.Sprintf("next %d msgs", ev.count())
	}
	in.record(ev.Kind, ev.Node, detail)
	if in.OnEvent != nil {
		in.OnEvent(ev)
	}
}

// record appends to the fault-event log and mirrors the fault into metrics
// and the trace.
func (in *Injector) record(k Kind, node int, detail string) {
	in.log = append(in.log, Record{T: int64(in.eng.Now()), Kind: k.String(), Node: node, Detail: detail})
	in.faultsC.Inc()
	if in.eng.Tracing() {
		name := k.String()
		if detail != "" {
			name += " " + detail
		}
		in.eng.EmitNow(obs.TraceEvent{
			Node: node, Kind: obs.KindInstant, Category: "fault", Name: name,
		})
	}
}

// Log returns the fault-event log in application order.
func (in *Injector) Log() []Record { return in.log }

// Count reports the number of faults applied so far.
func (in *Injector) Count() int { return len(in.log) }
