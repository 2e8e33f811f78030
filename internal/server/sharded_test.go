package server

import (
	"math"
	"sync"
	"testing"

	"p2b/internal/bandit"
	"p2b/internal/transport"
)

// TestShardConfigRespected pins the Shards knob and its default.
func TestShardConfigRespected(t *testing.T) {
	s := New(Config{K: 4, Arms: 3, D: 2, Alpha: 1, Shards: 5})
	if got := len(s.shards); got != 5 {
		t.Fatalf("shards = %d, want 5", got)
	}
	if got := s.Config().Shards; got != 5 {
		t.Fatalf("Config().Shards = %d, want 5", got)
	}
	if s := New(Config{K: 4, Arms: 3, D: 2}); len(s.shards) < 1 {
		t.Fatal("default shard count must be at least 1")
	}
}

// TestConcurrentDeliverMergesExactly hammers a many-shard server from many
// goroutines and checks the merged model equals the arithmetic total: the
// per-shard accumulators must not lose or double-count anything.
func TestConcurrentDeliverMergesExactly(t *testing.T) {
	const (
		workers = 8
		batches = 200
		k       = 16
		arms    = 4
	)
	s := New(Config{K: k, Arms: arms, D: 2, Alpha: 1, Shards: workers})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]transport.Tuple, k)
			for b := 0; b < batches; b++ {
				for i := range batch {
					batch[i] = transport.Tuple{Code: i, Action: (i + w) % arms, Reward: 0.25}
				}
				s.Deliver(batch)
			}
		}(w)
	}
	wg.Wait()
	snap := s.TabularSnapshot()
	var totalCount, totalSum float64
	for i := range snap.Count {
		totalCount += snap.Count[i]
		totalSum += snap.Sum[i]
	}
	wantTuples := float64(workers * batches * k)
	if totalCount != wantTuples {
		t.Fatalf("merged count %v, want %v", totalCount, wantTuples)
	}
	if math.Abs(totalSum-0.25*wantTuples) > 1e-9 {
		t.Fatalf("merged sum %v, want %v", totalSum, 0.25*wantTuples)
	}
	if st := s.Stats(); st.TuplesIngested != int64(wantTuples) {
		t.Fatalf("stats ingested %d, want %v", st.TuplesIngested, wantTuples)
	}
}

// TestConcurrentIngestRawMergesExactly is the raw-path analogue: the merged
// LinUCB design matrix must reflect every observation.
func TestConcurrentIngestRawMergesExactly(t *testing.T) {
	const workers = 4
	const perWorker = 300
	s := New(Config{K: 4, Arms: 2, D: 2, Alpha: 1, Shards: workers})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := s.IngestRaw(transport.RawTuple{Context: []float64{1, 0}, Action: 0, Reward: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	snap := s.LinUCBSnapshot()
	if snap.N[0] != workers*perWorker {
		t.Fatalf("N[0] = %d, want %d", snap.N[0], workers*perWorker)
	}
	// A_0 = I + n * e_0 e_0^T, so (A^{-1})_{00} = 1/(1+n) and b = n e_0.
	n := float64(workers * perWorker)
	if got, want := snap.AInv[0][0], 1/(1+n); math.Abs(got-want) > 1e-9 {
		t.Fatalf("AInv[0][0] = %v, want %v", got, want)
	}
	if got := snap.B[0][0]; got != n {
		t.Fatalf("B[0][0] = %v, want %v", got, n)
	}
}

// countingDecoder counts Decode calls, to show where decoding happens.
type countingDecoder struct {
	gridDecoder
	calls int
}

func (d *countingDecoder) Decode(code int) []float64 {
	d.calls++
	return d.gridDecoder.Decode(code)
}

// centroidReference is the per-tuple centroid accumulator the server kept
// before the centroid model was derived from the tabular cells: every
// valid tuple adds its decoded context's outer product and reward-weighted
// context to its arm, with Deliver's validity rules and reward clamp.
func centroidReference(dec Decoder, cfg Config, batches ...[]transport.Tuple) *bandit.LinUCBState {
	acc := newLinAccum(cfg.Arms, cfg.D)
	for _, batch := range batches {
		for _, t := range batch {
			if uint(t.Code) >= uint(cfg.K) || uint(t.Action) >= uint(cfg.Arms) {
				continue
			}
			acc.add(dec.Decode(t.Code), t.Action, clampReward(t.Reward))
		}
	}
	return New(cfg).linSnapshot(acc)
}

// requireCentroidClose checks N exactly and B and AInv to 1e-12 relative
// to the largest reference entry of each arm.
func requireCentroidClose(t *testing.T, got, want *bandit.LinUCBState) {
	t.Helper()
	within := func(name string, a int, g, w []float64) {
		scale := 1.0
		for _, v := range w {
			scale = math.Max(scale, math.Abs(v))
		}
		for i := range w {
			if math.Abs(g[i]-w[i]) > 1e-12*scale {
				t.Fatalf("%s arm %d entry %d = %v, reference %v", name, a, i, g[i], w[i])
			}
		}
	}
	for a := range want.N {
		if got.N[a] != want.N[a] {
			t.Fatalf("N arm %d = %d, reference %d", a, got.N[a], want.N[a])
		}
		within("B", a, got.B[a], want.B[a])
		within("AInv", a, got.AInv[a], want.AInv[a])
	}
}

// TestCentroidModelDerivesFromCells holds the centroid model derived from
// the tabular cells to the per-tuple accumulator it replaced, and checks
// that decoding happens once per code at snapshot build, never in Deliver.
func TestCentroidModelDerivesFromCells(t *testing.T) {
	dec := &countingDecoder{gridDecoder: gridDecoder{d: 3}}
	cfg := Config{K: 16, Arms: 4, D: 3, Alpha: 1, Decoder: dec, Shards: 3}
	s := New(cfg)
	batches := randomBatches(9, 40, cfg.K, cfg.Arms, 21)
	batches = append(batches, []transport.Tuple{
		{Code: cfg.K, Action: 0, Reward: 1}, // dropped: code out of range
		{Code: 3, Action: -1, Reward: 1},    // dropped: action out of range
		{Code: 2, Action: 1, Reward: 7},     // reward clamped to 1
	})
	for _, b := range batches {
		s.Deliver(b)
	}
	if dec.calls != 0 {
		t.Fatalf("Deliver decoded %d codes, want 0", dec.calls)
	}

	got, _ := s.CentroidModel()
	requireCentroidClose(t, got, centroidReference(dec.gridDecoder, cfg, batches...))
	pulled := 0
	tab := s.TabularSnapshot()
	for code := 0; code < cfg.K; code++ {
		for a := 0; a < cfg.Arms; a++ {
			if tab.Count[code*cfg.Arms+a] != 0 {
				pulled++
				break
			}
		}
	}
	if dec.calls != pulled {
		t.Fatalf("snapshot build decoded %d times, want once per pulled code (%d)", dec.calls, pulled)
	}
	if again, _ := s.CentroidModel(); again != got || dec.calls != pulled {
		t.Fatalf("cached read rebuilt or decoded (%d calls, want %d)", dec.calls, pulled)
	}

	// Export → import reproduces the centroid model bit for bit.
	imported := New(cfg)
	if err := imported.ImportState(s.ExportState()); err != nil {
		t.Fatal(err)
	}
	ic := imported.CentroidSnapshot()
	compareLin(t, "centroid", got.AInv, ic.AInv, got.B, ic.B, got.N, ic.N)

	// A peer contribution reaches the centroid model through the cells,
	// even from a peer with no decoder.
	peer := New(Config{K: cfg.K, Arms: cfg.Arms, D: cfg.D, Alpha: 1, Shards: 1})
	peerBatches := randomBatches(5, 40, cfg.K, cfg.Arms, 22)
	for _, b := range peerBatches {
		peer.Deliver(b)
	}
	if ok, err := s.MergePeerState("analyzer-2", 1, 1, peer.ExportState()); !ok || err != nil {
		t.Fatalf("MergePeerState = %v, %v", ok, err)
	}
	merged, _ := s.CentroidModel()
	requireCentroidClose(t, merged, centroidReference(dec.gridDecoder, cfg, append(batches, peerBatches...)...))
}

// TestSnapshotCacheInvalidation verifies that snapshots are cached between
// mutations and refreshed after each one.
func TestSnapshotCacheInvalidation(t *testing.T) {
	s := New(Config{K: 4, Arms: 2, D: 2, Alpha: 1, Shards: 2})
	tuple := []transport.Tuple{{Code: 1, Action: 1, Reward: 1}}
	s.Deliver(tuple)
	a := s.TabularSnapshot()
	b := s.TabularSnapshot()
	if &a.Count[0] == &b.Count[0] {
		t.Fatal("snapshots must not share backing arrays")
	}
	if a.Count[1*2+1] != 1 || b.Count[1*2+1] != 1 {
		t.Fatal("cached snapshot lost the delivery")
	}
	s.Deliver(tuple)
	c := s.TabularSnapshot()
	if c.Count[1*2+1] != 2 {
		t.Fatalf("snapshot after second delivery = %v, want 2", c.Count[1*2+1])
	}
}

// TestCentroidSnapshotNilWithoutDecoder preserves the documented contract.
func TestCentroidSnapshotNilWithoutDecoder(t *testing.T) {
	s := New(Config{K: 4, Arms: 2, D: 2, Alpha: 1})
	if s.CentroidSnapshot() != nil {
		t.Fatal("CentroidSnapshot without decoder must be nil")
	}
}

// TestIngestRawRejectsNonFinite: one poisoned context would corrupt the
// additive design matrix permanently and only surface later as an
// inversion panic — it must be rejected up front.
func TestIngestRawRejectsNonFinite(t *testing.T) {
	s := New(Config{K: 4, Arms: 2, D: 2, Alpha: 1})
	bad := []transport.RawTuple{
		{Context: []float64{math.NaN(), 0}, Action: 0, Reward: 1},
		{Context: []float64{0, math.Inf(1)}, Action: 0, Reward: 1},
		{Context: []float64{math.Inf(-1), 0}, Action: 0, Reward: 1},
	}
	for i, tup := range bad {
		if err := s.IngestRaw(tup); err == nil {
			t.Fatalf("case %d: non-finite context accepted", i)
		}
	}
	if st := s.Stats(); st.RawIngested != 0 {
		t.Fatalf("raw ingested %d, want 0", st.RawIngested)
	}
	// The model must still be servable.
	if err := s.IngestRaw(transport.RawTuple{Context: []float64{1, 0}, Action: 0, Reward: 1}); err != nil {
		t.Fatal(err)
	}
	snap := s.LinUCBSnapshot()
	if snap.N[0] != 1 {
		t.Fatalf("N[0] = %d, want 1", snap.N[0])
	}
}
