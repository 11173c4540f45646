package hw

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Message is one transmission on the interconnect. Payload semantics belong
// to the caller (the execution layer defines control and data message
// types); hw charges costs from Bytes alone.
type Message struct {
	From, To int
	Bytes    int
	Payload  any
}

// NIC is one node's network interface: a FCFS facility serializing outgoing
// transmissions plus a receive path that charges the node CPU for each
// arriving message before delivering it to the node's inbox.
type NIC struct {
	node  int
	out   *sim.Facility
	rx    *sim.Mailbox[Message] // wire -> interrupt handler
	inbox *sim.Mailbox[Message] // interrupt handler -> application

	sent      int64
	bytesSent int64
}

// Network is the fully connected interconnect of Figure 7. Node IDs are
// 0..n-1 in the order the CPUs were supplied; by convention the execution
// layer uses the last ID for the scheduler/host node.
type Network struct {
	eng    *sim.Engine
	params Params
	nics   []*NIC

	// Registry handles (nil-safe when metrics are disabled).
	packetsC *obs.Counter
	bytesC   *obs.Counter

	faults *netFaults // nil unless fault injection armed them
}

// netFaults holds the interconnect's fault-injection state: per-destination
// forced drop/duplication counters plus optional probabilistic drop and
// duplication driven by a dedicated rng stream. Faults act on whole logical
// messages at delivery time — the wire and CPU costs are already paid, the
// receiver just never sees (or sees twice) the payload.
type netFaults struct {
	src        *rng.Source
	dropP      float64
	dupP       float64
	drop, dup  []int // per-destination forced counts
	dropped    int64
	duplicated int64
}

// EnableFaults arms the interconnect fault hooks. src drives the
// probabilistic drop (dropP) and duplication (dupP) decisions; pass zero
// probabilities for a purely scheduled (DropNext/DupNext) setup.
func (n *Network) EnableFaults(src *rng.Source, dropP, dupP float64) {
	n.faults = &netFaults{
		src: src, dropP: dropP, dupP: dupP,
		drop: make([]int, len(n.nics)), dup: make([]int, len(n.nics)),
	}
}

// DropNext makes the next k logical messages addressed to node vanish after
// transmission. A no-op unless EnableFaults was called.
func (n *Network) DropNext(node, k int) {
	if n.faults != nil && node >= 0 && node < len(n.nics) {
		n.faults.drop[node] += k
	}
}

// DupNext makes the next k logical messages addressed to node arrive twice.
// A no-op unless EnableFaults was called.
func (n *Network) DupNext(node, k int) {
	if n.faults != nil && node >= 0 && node < len(n.nics) {
		n.faults.dup[node] += k
	}
}

// Dropped reports logical messages discarded by fault injection.
func (n *Network) Dropped() int64 {
	if n.faults == nil {
		return 0
	}
	return n.faults.dropped
}

// Duplicated reports logical messages delivered twice by fault injection.
func (n *Network) Duplicated() int64 {
	if n.faults == nil {
		return 0
	}
	return n.faults.duplicated
}

// deliveries decides how many copies of a logical message addressed to node
// the receiver sees: 1 normally, 0 for a drop, 2 for a duplication. Forced
// counters win over the probabilistic draws so scheduled specs stay exact.
func (f *netFaults) deliveries(node int) int {
	if f.drop[node] > 0 {
		f.drop[node]--
		f.dropped++
		return 0
	}
	if f.dup[node] > 0 {
		f.dup[node]--
		f.duplicated++
		return 2
	}
	if f.dropP > 0 && f.src.Float64() < f.dropP {
		f.dropped++
		return 0
	}
	if f.dupP > 0 && f.src.Float64() < f.dupP {
		f.duplicated++
		return 2
	}
	return 1
}

// NewNetwork wires one NIC per CPU. Each NIC gets a receive-interrupt
// process charging cpus[i] at transfer priority for arriving messages.
//
// A nil entry in cpus marks an uncharged endpoint: the paper's Figure 7
// gives CPUs to operator nodes only, while the Query Manager, Scheduler and
// System Catalog are stand-alone coordination modules. Messages sent from a
// nil-CPU endpoint delay the sending process for the protocol cost but
// contend for no processor, and arriving messages are delivered without a
// receive-interrupt charge.
func NewNetwork(e *sim.Engine, params Params, cpus []*CPU) *Network {
	n := &Network{eng: e, params: params, nics: make([]*NIC, len(cpus))}
	if reg := e.Metrics(); reg != nil {
		n.packetsC = reg.Counter("net.packets")
		n.bytesC = reg.Counter("net.bytes")
	}
	for i := range cpus {
		nic := &NIC{
			node:  i,
			out:   sim.NewFacility(e, fmt.Sprintf("nic%d.out", i)),
			rx:    sim.NewMailbox[Message](e, fmt.Sprintf("nic%d.rx", i)),
			inbox: sim.NewMailbox[Message](e, fmt.Sprintf("nic%d.inbox", i)),
		}
		nic.out.SetMeta(i, "net")
		n.nics[i] = nic
		cpu := cpus[i]
		e.Spawn(fmt.Sprintf("nic%d.recv", i), func(p *sim.Proc) {
			for {
				m := nic.rx.Get(p)
				if cpu != nil {
					// Receive-side protocol processing: a fraction of the
					// sender cost, charged at interrupt (transfer) priority.
					cost := sim.Duration(float64(n.params.MsgCost(m.Bytes)) * n.params.RecvCostFraction)
					cpu.ExecuteTime(p, cost, PrioTransfer)
				}
				nic.inbox.Put(m)
			}
		})
	}
	return n
}

// Nodes reports the number of network endpoints.
func (n *Network) Nodes() int { return len(n.nics) }

// Send transmits msg, blocking the sending process for the sender-side CPU
// protocol cost and the NIC transmission time. Messages larger than
// MaxPacket are split into maximal packets, each paying full per-packet
// costs (Table 2 caps packets at 8 KB).
func (n *Network) Send(p *sim.Proc, cpu *CPU, msg Message) {
	if msg.To < 0 || msg.To >= len(n.nics) || msg.From < 0 || msg.From >= len(n.nics) {
		panic(fmt.Sprintf("hw: message endpoints out of range: %d -> %d", msg.From, msg.To))
	}
	if msg.Bytes <= 0 {
		panic(fmt.Sprintf("hw: message must have positive size, got %d", msg.Bytes))
	}
	src := n.nics[msg.From]
	remaining := msg.Bytes
	for remaining > 0 {
		chunk := remaining
		if chunk > n.params.MaxPacket {
			chunk = n.params.MaxPacket
		}
		remaining -= chunk
		last := remaining == 0
		// Sender protocol processing on the node CPU (or a pure delay for
		// an uncharged coordination endpoint), then transmission serialized
		// through the outgoing NIC.
		if cpu != nil {
			cpu.ExecuteTime(p, n.params.MsgCost(chunk), PrioNormal)
		} else {
			p.Hold(n.params.MsgCost(chunk))
		}
		src.out.Use(p, n.params.WireTime(chunk))
		src.sent++
		src.bytesSent += int64(chunk)
		n.packetsC.Inc()
		n.bytesC.Add(int64(chunk))
		if n.eng.Tracing() {
			n.eng.EmitNow(obs.TraceEvent{
				Node: msg.From, Kind: obs.KindInstant, Category: "net",
				Name:    fmt.Sprintf("packet %dB -> %d", chunk, msg.To),
				QueryID: p.QID(),
			})
		}
		if last {
			// Deliver the logical message with the final packet. Fault
			// injection acts here, on the whole logical message: a drop
			// loses the payload after the wire cost is paid, a duplication
			// hands the receiver the same payload twice.
			copies := 1
			if n.faults != nil {
				copies = n.faults.deliveries(msg.To)
			}
			for c := 0; c < copies; c++ {
				n.nics[msg.To].rx.Put(Message{From: msg.From, To: msg.To, Bytes: chunk, Payload: msg.Payload})
			}
		} else {
			n.nics[msg.To].rx.Put(Message{From: msg.From, To: msg.To, Bytes: chunk})
		}
	}
}

// Inbox returns the application-level inbox for a node. Messages appear here
// after receive-side CPU processing. Fragments of an oversize message arrive
// as separate entries; only the final fragment carries the payload.
func (n *Network) Inbox(node int) *sim.Mailbox[Message] { return n.nics[node].inbox }

// Sent reports packets transmitted by a node.
func (n *Network) Sent(node int) int64 { return n.nics[node].sent }

// BytesSent reports bytes transmitted by a node.
func (n *Network) BytesSent(node int) int64 { return n.nics[node].bytesSent }

// ResetStats clears per-node counters (post warm-up).
func (n *Network) ResetStats() {
	for _, nic := range n.nics {
		nic.sent, nic.bytesSent = 0, 0
		nic.out.ResetStats()
	}
	n.packetsC.Reset()
	n.bytesC.Reset()
}
