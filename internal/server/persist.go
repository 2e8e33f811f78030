// Exact export/import of the server's accumulators for durable
// checkpoints.
//
// The export copies the one local accumulator, exactly the values the
// snapshot builders read, and importing loads those values back, so a
// snapshot taken after reload is bit-identical to a snapshot of the server
// that was exported. Bit-identity across a crash additionally requires the
// ingestion order to be reproduced, which the WAL guarantees: the state is
// a function of the order of Deliver and IngestRaw calls alone.
package server

import "fmt"

// LinAccumState is the serializable form of one LinUCB sufficient-statistics
// accumulator: per arm, the outer-product sum (row-major, without the
// identity ridge), the reward-weighted context sum, and the observation
// count.
type LinAccumState struct {
	A [][]float64 `json:"a"`
	B [][]float64 `json:"b"`
	N []int64     `json:"n"`
}

// PersistedState is the exact serializable form of the server's model
// state. It contains only additive sufficient
// statistics over anonymized tuples — no per-device information exists
// anywhere in the server to leak. The centroid model is not part of it:
// it is derived from the cells, so its shape is the same with or without
// a Decoder.
type PersistedState struct {
	K     int     `json:"k"`
	Arms  int     `json:"arms"`
	D     int     `json:"d"`
	Alpha float64 `json:"alpha"`

	CellCount []float64     `json:"cell_count"` // (code, action) pull counts, indexed code*Arms+action
	CellSum   []float64     `json:"cell_sum"`   // (code, action) reward sums
	Lin       LinAccumState `json:"lin"`        // raw-context baseline accumulator

	Tuples    int64 `json:"tuples"`
	Raw       int64 `json:"raw"`
	Snapshots int64 `json:"snapshots"`

	// Relays carries the per-relay-origin duplicate-guard positions across
	// checkpoints, so a restarted analyzer still rejects relay batches it
	// already folded in. Peer MERGE contributions are deliberately NOT part
	// of the export: they are soft state the anti-entropy loop repopulates
	// within one sync interval, and persisting them would let a stale copy
	// of a peer's data outlive the peer's own newer exports. The binary
	// peer codec (AppendState) never carries this field — a receiver stores
	// the update as the sender's contribution and must not inherit the
	// sender's dedup bookkeeping.
	Relays map[string]PeerSeq `json:"relays,omitempty"`
}

func exportLinAccum(acc *linAccum) LinAccumState {
	arms := len(acc.a)
	st := LinAccumState{A: make([][]float64, arms), B: make([][]float64, arms), N: make([]int64, arms)}
	for a := 0; a < arms; a++ {
		st.A[a] = append([]float64(nil), acc.a[a].Data...)
		st.B[a] = append([]float64(nil), acc.b[a]...)
	}
	copy(st.N, acc.n)
	return st
}

// ExportState returns a copy of the accumulator state: bitwise the values a
// snapshot build reads.
func (s *Server) ExportState() *PersistedState {
	ps := &PersistedState{
		K:         s.cfg.K,
		Arms:      s.cfg.Arms,
		D:         s.cfg.D,
		Alpha:     s.cfg.Alpha,
		CellCount: make([]float64, s.cfg.K*s.cfg.Arms),
		CellSum:   make([]float64, s.cfg.K*s.cfg.Arms),
		Snapshots: s.snapshots.Load(),
	}
	s.mu.Lock()
	for j, c := range s.cells {
		ps.CellCount[j] = c.count
		ps.CellSum[j] = c.sum
	}
	ps.Lin = exportLinAccum(s.lin)
	ps.Tuples, ps.Raw = s.tuples, s.raw
	s.mu.Unlock()
	s.peers.mu.Lock()
	if len(s.peers.relays) > 0 {
		ps.Relays = make(map[string]PeerSeq, len(s.peers.relays))
		for origin, pos := range s.peers.relays {
			ps.Relays[origin] = pos
		}
	}
	s.peers.mu.Unlock()
	return ps
}

func (st *LinAccumState) validate(name string, arms, d int) error {
	if len(st.A) != arms || len(st.B) != arms || len(st.N) != arms {
		return fmt.Errorf("server: %s accumulator has %d/%d/%d arms, want %d", name, len(st.A), len(st.B), len(st.N), arms)
	}
	for a := 0; a < arms; a++ {
		if len(st.A[a]) != d*d || len(st.B[a]) != d {
			return fmt.Errorf("server: %s accumulator arm %d has wrong shape", name, a)
		}
	}
	return nil
}

func importLinAccum(acc *linAccum, st *LinAccumState, arms int) {
	for a := 0; a < arms; a++ {
		copy(acc.a[a].Data, st.A[a])
		copy(acc.b[a], st.B[a])
		acc.n[a] = st.N[a]
	}
}

// ImportState loads an exported state into an empty server, so snapshots
// after the import reproduce the exported model bit-for-bit. Importing over a
// server that has already ingested anything is refused — recovery happens
// on boot, before the listener opens.
func (s *Server) ImportState(ps *PersistedState) error {
	if ps.K != s.cfg.K || ps.Arms != s.cfg.Arms || ps.D != s.cfg.D {
		return fmt.Errorf("server: persisted shape k=%d arms=%d d=%d, server configured k=%d arms=%d d=%d",
			ps.K, ps.Arms, ps.D, s.cfg.K, s.cfg.Arms, s.cfg.D)
	}
	n := s.cfg.K * s.cfg.Arms
	if len(ps.CellCount) != n || len(ps.CellSum) != n {
		return fmt.Errorf("server: persisted tabular cells %d/%d, want %d", len(ps.CellCount), len(ps.CellSum), n)
	}
	if err := ps.Lin.validate("lin", s.cfg.Arms, s.cfg.D); err != nil {
		return err
	}
	s.mu.Lock()
	if s.tuples != 0 || s.raw != 0 {
		s.mu.Unlock()
		return fmt.Errorf("server: refusing to import state into a server that already ingested data")
	}
	for j := range s.cells {
		s.cells[j] = tabCell{count: ps.CellCount[j], sum: ps.CellSum[j]}
	}
	importLinAccum(s.lin, &ps.Lin, s.cfg.Arms)
	s.tuples = ps.Tuples
	s.raw = ps.Raw
	s.local.Add(1) // invalidate any cached empty snapshot
	s.mu.Unlock()
	s.peers.mu.Lock()
	for origin, pos := range ps.Relays {
		s.peers.relays[origin] = pos
	}
	s.peers.mu.Unlock()
	s.snapshots.Store(ps.Snapshots)
	return nil
}
