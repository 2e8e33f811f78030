package server

import (
	"testing"

	"p2b/internal/transport"
)

// intDecoder maps codes to small-integer vectors. Integer features keep
// every accumulator sum exact (outer products of integers stay integral),
// so cross-node equality checks are bit-for-bit regardless of fold order —
// the same property the topology-equivalence CI run relies on.
type intDecoder struct{ d int }

func (g intDecoder) Decode(code int) []float64 {
	v := make([]float64, g.d)
	for i := range v {
		v[i] = float64((code+i)%5 + 1)
	}
	return v
}

func peerTestConfig() Config {
	return Config{K: 8, Arms: 3, D: 2, Alpha: 1, Decoder: intDecoder{d: 2}}
}

// integralBatches ships {0,1} rewards: float64 addition over them is exact,
// so model equality checks below are bit-for-bit, not approximate.
func integralBatches(n, batch int, cfg Config, seed uint64) [][]transport.Tuple {
	out := randomBatches(n, batch, cfg.K, cfg.Arms, seed)
	for _, b := range out {
		for i := range b {
			if b[i].Reward >= 0.5 {
				b[i].Reward = 1
			} else {
				b[i].Reward = 0
			}
		}
	}
	return out
}

func TestDeliverPeerBatchDuplicateGuard(t *testing.T) {
	srv := New(peerTestConfig())
	batch := integralBatches(1, 5, peerTestConfig(), 1)[0]

	if !srv.DeliverPeerBatch("relay-1", 7, 1, batch) {
		t.Fatal("first delivery rejected")
	}
	if srv.DeliverPeerBatch("relay-1", 7, 1, batch) {
		t.Fatal("exact duplicate applied")
	}
	if srv.DeliverPeerBatch("relay-1", 7, 0, batch) {
		t.Fatal("older seq applied")
	}
	if !srv.DeliverPeerBatch("relay-1", 7, 2, batch) {
		t.Fatal("next seq rejected")
	}
	// A new epoch means the relay rebooted and restarted its sequence:
	// always accepted.
	if !srv.DeliverPeerBatch("relay-1", 8, 1, batch) {
		t.Fatal("new epoch rejected")
	}
	// Origins are independent streams.
	if !srv.DeliverPeerBatch("relay-2", 7, 1, batch) {
		t.Fatal("second origin rejected")
	}

	if st := srv.Stats(); st.TuplesIngested != 4*int64(len(batch)) {
		t.Fatalf("ingested %d tuples, want %d (duplicates must not fold in)", st.TuplesIngested, 4*len(batch))
	}
	ma, mr, rb, rd := srv.PeerCounters()
	if ma != 0 || mr != 0 || rb != 4 || rd != 2 {
		t.Fatalf("counters = applied %d rejected %d batches %d duplicates %d", ma, mr, rb, rd)
	}
	if srv.PeerBatchSeen("relay-1", 8, 1) != true || srv.PeerBatchSeen("relay-1", 9, 1) != false {
		t.Fatal("PeerBatchSeen disagrees with the guard")
	}
}

func TestMergePeerStateDoubleApplyRejected(t *testing.T) {
	cfg := peerTestConfig()
	a, b := New(cfg), New(cfg)
	for _, batch := range integralBatches(5, 24, cfg, 3) {
		a.Deliver(batch)
	}

	applied, err := b.MergePeerState("analyzer-a", 1, 1, a.ExportState())
	if err != nil || !applied {
		t.Fatalf("first merge: applied=%v err=%v", applied, err)
	}
	// The receiver now computes a's model exactly: its only content is the
	// stored contribution.
	assertSnapshotsBitIdentical(t, a, b)

	// Double apply: same (epoch, seq) again. Rejected, state unchanged.
	applied, err = b.MergePeerState("analyzer-a", 1, 1, a.ExportState())
	if err != nil || applied {
		t.Fatalf("double apply: applied=%v err=%v, want rejection", applied, err)
	}
	assertSnapshotsBitIdentical(t, a, b)

	// A newer push REPLACES the stored contribution — the old one must not
	// linger and double-count.
	for _, batch := range integralBatches(3, 24, cfg, 4) {
		a.Deliver(batch)
	}
	applied, err = b.MergePeerState("analyzer-a", 1, 2, a.ExportState())
	if err != nil || !applied {
		t.Fatalf("newer merge: applied=%v err=%v", applied, err)
	}
	assertSnapshotsBitIdentical(t, a, b)

	// Out-of-order old push after the new one: stale, ignored.
	applied, err = b.MergePeerState("analyzer-a", 1, 1, New(cfg).ExportState())
	if err != nil || applied {
		t.Fatalf("stale merge: applied=%v err=%v, want rejection", applied, err)
	}
	assertSnapshotsBitIdentical(t, a, b)

	ma, mr, _, _ := b.PeerCounters()
	if ma != 2 || mr != 2 {
		t.Fatalf("merge counters = applied %d rejected %d, want 2/2", ma, mr)
	}
}

func TestMergePeerStateAdditiveWithLocal(t *testing.T) {
	cfg := peerTestConfig()
	local := integralBatches(4, 24, cfg, 10)
	remote := integralBatches(4, 24, cfg, 11)

	// Reference: one combined node that saw everything, locals first.
	ref := New(cfg)
	for _, batch := range local {
		ref.Deliver(batch)
	}
	for _, batch := range remote {
		ref.Deliver(batch)
	}

	// Fleet: b holds the local batches plus a's contribution.
	a, b := New(cfg), New(cfg)
	for _, batch := range remote {
		a.Deliver(batch)
	}
	for _, batch := range local {
		b.Deliver(batch)
	}
	if _, err := b.MergePeerState("analyzer-a", 1, 1, a.ExportState()); err != nil {
		t.Fatal(err)
	}
	assertSnapshotsBitIdentical(t, ref, b)
}

func TestMergePeerStateShapeValidation(t *testing.T) {
	cfg := peerTestConfig()
	b := New(cfg)

	other := cfg
	other.K = cfg.K * 2
	if _, err := b.MergePeerState("a", 1, 1, New(other).ExportState()); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if _, err := b.MergePeerState("", 1, 1, New(cfg).ExportState()); err == nil {
		t.Fatal("empty origin accepted")
	}
	if _, err := b.MergePeerState("a", 1, 1, nil); err == nil {
		t.Fatal("nil state accepted")
	}
	truncated := New(cfg).ExportState()
	truncated.CellCount = truncated.CellCount[:3]
	if _, err := b.MergePeerState("a", 1, 1, truncated); err == nil {
		t.Fatal("truncated cells accepted")
	}
	if ma, mr, _, _ := b.PeerCounters(); ma != 0 || mr != 0 {
		t.Fatalf("malformed updates moved counters: applied %d rejected %d", ma, mr)
	}
}

func TestLocalVersionExcludesPeerMerges(t *testing.T) {
	cfg := peerTestConfig()
	a, b := New(cfg), New(cfg)
	for _, batch := range integralBatches(2, 24, cfg, 5) {
		a.Deliver(batch)
	}

	before := b.LocalVersion()
	modelBefore, vBefore := b.TabularModel()
	if _, err := b.MergePeerState("analyzer-a", 1, 1, a.ExportState()); err != nil {
		t.Fatal(err)
	}
	if got := b.LocalVersion(); got != before {
		t.Fatalf("LocalVersion moved on a merge (%d -> %d): the peering loop would echo peer data back", before, got)
	}
	// The served model and its version DO move: peers' data must reach
	// agents, and the ETag must invalidate cached snapshots.
	modelAfter, vAfter := b.TabularModel()
	if vAfter == vBefore {
		t.Fatal("model version unchanged by a merge; stale ETags would serve a pre-merge model")
	}
	if modelAfter == modelBefore {
		t.Fatal("snapshot cache served the pre-merge model after a merge")
	}

	// Export/import: relay guard positions survive a checkpoint round-trip,
	// stored contributions deliberately do not (anti-entropy re-fills them).
	b.DeliverPeerBatch("relay-1", 3, 9, integralBatches(1, 4, cfg, 6)[0])
	c := New(cfg)
	if err := c.ImportState(b.ExportState()); err != nil {
		t.Fatal(err)
	}
	if !c.PeerBatchSeen("relay-1", 3, 9) {
		t.Fatal("relay guard lost across export/import; a WAL-tail re-forward would double-count")
	}
	if st := c.PeerStatus(); len(st.Contributions) != 0 {
		t.Fatalf("contributions leaked through export: %+v", st.Contributions)
	}
}
