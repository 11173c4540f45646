package gamma

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stats"
)

// LoadResult reports the simulated cost of declustering the relation — the
// partitioning process Section 3.1 describes. It is measured on a fresh
// machine: the source relation is scanned sequentially from node 0's disk,
// tuples are shipped to their home processors in full packets, each node
// writes its fragment and builds its indexes, and (for BERD) the auxiliary
// relations are constructed with a second scan-and-ship pass. MAGIC's
// directory construction also requires an extra analysis scan of the
// relation (the grid file insertion phase) before any tuple moves.
type LoadResult struct {
	Strategy string
	// ScanPasses over the source relation the strategy needs (range: 1;
	// BERD: 2 — base + auxiliary; MAGIC: 2 — grid construction + placement).
	ScanPasses int
	// Elapsed simulated time for the whole load.
	Elapsed sim.Duration
	// PagesWritten across all nodes (fragments + indexes + auxiliaries).
	PagesWritten int
	// PacketsShipped across the interconnect.
	PacketsShipped int64
}

// String summarizes the load.
func (r LoadResult) String() string {
	return fmt.Sprintf("%s: %d scan pass(es), %.1fs simulated, %d pages written, %d packets",
		r.Strategy, r.ScanPasses, r.Elapsed.Seconds(), r.PagesWritten, r.PacketsShipped)
}

// SimulateLoad measures the declustering cost of this machine's placement.
// Loading precedes every run, so it is simulated without the run's fault
// and membership schedules. It resets the machine afterwards so subsequent
// Runs start clean.
func (m *Machine) SimulateLoad() (LoadResult, error) {
	faults, elastic := m.Cfg.Faults, m.Cfg.Elastic
	m.Cfg.Faults, m.Cfg.Elastic = nil, nil
	m.Reset()
	m.Cfg.Faults, m.Cfg.Elastic = faults, elastic
	cfg := m.Cfg
	eng := m.Eng
	params := cfg.HW

	res := LoadResult{Strategy: m.Placement.Name(), ScanPasses: 1}
	switch m.Placement.(type) {
	case *core.BERDPlacement:
		res.ScanPasses = 2 // base pass + auxiliary construction pass
	case *core.MAGICPlacement:
		res.ScanPasses = 2 // grid-file analysis pass + placement pass
	}

	// Source relation: stored contiguously on node 0's disk before
	// declustering. It occupies sourcePages sequential pages.
	sourcePages := params.PagesForTuples(m.Relation.Cardinality())
	if sourcePages > params.PagesPerDisk() {
		return res, fmt.Errorf("gamma: source relation (%d pages) exceeds one disk", sourcePages)
	}

	loader := m.Nodes[0]
	packetsBefore := m.totalPacketsSent()
	done := sim.NewTrigger(eng)
	var simErr error

	eng.Spawn("loader", func(p *sim.Proc) {
		defer done.Fire()
		// Analysis passes: sequential scans of the source relation with
		// per-page processing (grid construction / auxiliary extraction).
		for pass := 1; pass < res.ScanPasses; pass++ {
			for pg := 0; pg < sourcePages; pg++ {
				if err := loader.Disk.Read(p, pg); err != nil {
					simErr = err
					return
				}
				loader.CPU.Execute(p, params.ReadPageInstr)
			}
		}
		// Placement pass: scan again, ship each node its tuples in full
		// packets, and have each node write its fragment and indexes.
		for pg := 0; pg < sourcePages; pg++ {
			if err := loader.Disk.Read(p, pg); err != nil {
				simErr = err
				return
			}
			loader.CPU.Execute(p, params.ReadPageInstr)
		}
		// Shipping: every tuple crosses the network to its home (tuples
		// landing on node 0 stay local). Modeled as the bulk packet count
		// per destination rather than per-tuple sends.
		slots := m.relations[0].primary
		for node := 1; node < len(slots); node++ { // fixed order: determinism
			bytes := params.TupleBytes(slots[node].frag.NumTuples())
			if bytes == 0 {
				continue
			}
			// Payload-free bulk transfer: the receiving node's operator
			// manager ignores fragments without a payload.
			m.Net.Send(p, loader.CPU, hw.Message{From: 0, To: node, Bytes: bytes})
		}
		// Each node writes its data, index and auxiliary pages. The writes
		// proceed in parallel across nodes; the loader waits for all.
		gate := sim.NewGate(eng, len(m.Nodes))
		info, _ := m.Catalog.Lookup(m.Relation.Name)
		for i, n := range m.Nodes {
			node := n
			pages := info.Nodes[i].TotalPages()
			res.PagesWritten += pages
			eng.Spawn(fmt.Sprintf("load.write%d", i), func(wp *sim.Proc) {
				defer gate.Done()
				for pg := 0; pg < pages; pg++ {
					node.CPU.Execute(wp, params.WritePageInstr)
					if err := node.Disk.Write(wp, pg); err != nil {
						simErr = err
						return
					}
				}
			})
		}
		gate.Wait(p)
	})

	if err := eng.RunUntil(sim.Time(6 * 3600 * sim.Second)); err != nil {
		return res, err
	}
	if !done.Fired() {
		simErr = fmt.Errorf("gamma: load did not complete within the simulated bound")
	}
	res.Elapsed = sim.Duration(eng.Now())
	res.PacketsShipped = m.totalPacketsSent() - packetsBefore
	m.Reset() // leave the machine clean for measurement runs
	return res, simErr
}

func (m *Machine) totalPacketsSent() int64 {
	var t int64
	for i := range m.Nodes {
		t += m.Net.Sent(i)
	}
	return t
}

// LoadTable renders a set of load results.
func LoadTable(results []LoadResult) *stats.Table {
	tb := stats.NewTable("Declustering (load) cost",
		"strategy", "scan passes", "simulated time", "pages written", "packets")
	for _, r := range results {
		tb.AddRow(r.Strategy, r.ScanPasses,
			fmt.Sprintf("%.1fs", r.Elapsed.Seconds()), r.PagesWritten, r.PacketsShipped)
	}
	return tb
}
