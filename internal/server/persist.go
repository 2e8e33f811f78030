// Exact export/import of the server's accumulators for durable
// checkpoints.
//
// The export is merged-on-write: the per-shard additive accumulators are
// summed in shard order into one flat state, exactly the way the snapshot
// builders merge them. Importing loads the merged state into shard 0 and
// leaves the other shards zero, so a snapshot taken after reload adds the
// imported values to exact zeros — bit-identical to a snapshot of the
// server that was exported. (Bit-identity across a crash additionally
// requires the ingestion order to be reproduced, which the WAL guarantees
// for sequential ingestion; under concurrent ingestion shard assignment is
// scheduling-dependent and the recovered state equals some valid execution
// of the same tuple multiset.)
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
// state, merged across shards. It contains only additive sufficient
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
	// of a peer's data outlive the peer's own newer exports. The peering
	// push path strips this field before sending — a receiver stores the
	// update as the sender's contribution and must not inherit the sender's
	// dedup bookkeeping.
	Relays map[string]PeerSeq `json:"relays,omitempty"`
}

func exportLinAccum(dst *LinAccumState, acc *linAccum, arms, d int) {
	if dst.A == nil {
		dst.A = make([][]float64, arms)
		dst.B = make([][]float64, arms)
		dst.N = make([]int64, arms)
		for a := 0; a < arms; a++ {
			dst.A[a] = make([]float64, d*d)
			dst.B[a] = make([]float64, d)
		}
	}
	for a := 0; a < arms; a++ {
		for i, v := range acc.a[a].Data {
			dst.A[a][i] += v
		}
		for i, v := range acc.b[a] {
			dst.B[a][i] += v
		}
		dst.N[a] += acc.n[a]
	}
}

// ExportState returns the merged accumulator state. Shards are locked and
// summed in index order — the same order the snapshot builders use — so the
// exported values are bitwise the values a snapshot would have merged.
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
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for j, c := range sh.cells {
			ps.CellCount[j] += c.count
			ps.CellSum[j] += c.sum
		}
		exportLinAccum(&ps.Lin, sh.lin, s.cfg.Arms, s.cfg.D)
		ps.Tuples += sh.tuples
		ps.Raw += sh.raw
		sh.mu.Unlock()
	}
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

// ImportState loads an exported state into an empty server. The merged
// values land in shard 0; the remaining shards stay zero, so snapshots after
// the import reproduce the exported model bit-for-bit. Importing over a
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
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		empty := sh.tuples == 0 && sh.raw == 0
		sh.mu.Unlock()
		if !empty {
			return fmt.Errorf("server: refusing to import state into a server that already ingested data")
		}
	}

	sh := &s.shards[0]
	sh.mu.Lock()
	for j := range sh.cells {
		sh.cells[j] = tabCell{count: ps.CellCount[j], sum: ps.CellSum[j]}
	}
	importLinAccum(sh.lin, &ps.Lin, s.cfg.Arms)
	sh.tuples = ps.Tuples
	sh.raw = ps.Raw
	sh.version.Add(1) // invalidate any cached empty snapshot
	sh.mu.Unlock()
	s.peers.mu.Lock()
	for origin, pos := range ps.Relays {
		s.peers.relays[origin] = pos
	}
	s.peers.mu.Unlock()
	s.snapshots.Store(ps.Snapshots)
	return nil
}
