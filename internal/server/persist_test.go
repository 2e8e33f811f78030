package server

import (
	"sync"
	"testing"

	"p2b/internal/rng"
	"p2b/internal/transport"
)

// gridDecoder is a deterministic test decoder: code i maps to a fixed
// vector depending on i.
type gridDecoder struct{ d int }

func (g gridDecoder) Decode(code int) []float64 {
	v := make([]float64, g.d)
	for i := range v {
		v[i] = float64(code%7)/7 + float64(i)*0.01
	}
	return v
}

func randomBatches(n, batch, k, arms int, seed uint64) [][]transport.Tuple {
	r := rng.New(seed)
	out := make([][]transport.Tuple, n)
	for i := range out {
		b := make([]transport.Tuple, batch)
		for j := range b {
			b[j] = transport.Tuple{Code: r.IntN(k), Action: r.IntN(arms), Reward: r.Float64()}
		}
		out[i] = b
	}
	return out
}

func TestExportImportRoundTripBitIdentical(t *testing.T) {
	cfg := Config{K: 16, Arms: 4, D: 3, Alpha: 1.2, Decoder: gridDecoder{d: 3}}
	a := New(cfg)
	for _, batch := range randomBatches(7, 33, cfg.K, cfg.Arms, 5) {
		a.Deliver(batch)
	}
	r := rng.New(6)
	for i := 0; i < 50; i++ {
		ctx := make([]float64, cfg.D)
		for j := range ctx {
			ctx[j] = r.Float64()
		}
		if err := a.IngestRaw(transport.RawTuple{Context: ctx, Action: r.IntN(cfg.Arms), Reward: r.Float64()}); err != nil {
			t.Fatal(err)
		}
	}

	b := New(cfg)
	if err := b.ImportState(a.ExportState()); err != nil {
		t.Fatalf("ImportState: %v", err)
	}

	assertSnapshotsBitIdentical(t, a, b)
	if as, bs := a.Stats(), b.Stats(); as.TuplesIngested != bs.TuplesIngested || as.RawIngested != bs.RawIngested {
		t.Fatalf("stats diverged: %+v vs %+v", as, bs)
	}
}

// Importing a prefix's state and then ingesting the suffix must reproduce an
// uninterrupted run bit-for-bit.
func TestImportThenContinueMatchesCleanRun(t *testing.T) {
	cfg := Config{K: 8, Arms: 3, D: 2, Alpha: 1, Decoder: gridDecoder{d: 2}}
	batches := randomBatches(10, 21, cfg.K, cfg.Arms, 11)

	clean := New(cfg)
	for _, batch := range batches {
		clean.Deliver(batch)
	}

	prefix := New(cfg)
	for _, batch := range batches[:6] {
		prefix.Deliver(batch)
	}
	resumed := New(cfg)
	if err := resumed.ImportState(prefix.ExportState()); err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches[6:] {
		resumed.Deliver(batch)
	}

	assertSnapshotsBitIdentical(t, clean, resumed)
}

// Export copies the values the snapshot builders read, so even after
// genuinely concurrent ingestion, export → import → snapshot reproduces the
// source server's own snapshot bit-for-bit.
func TestExportMergesConcurrentShardsExactly(t *testing.T) {
	cfg := Config{K: 8, Arms: 3, D: 2, Alpha: 1}
	a := New(cfg)
	batches := randomBatches(32, 17, cfg.K, cfg.Arms, 13)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, batch := range batches[w*8 : (w+1)*8] {
				a.Deliver(batch)
			}
		}(w)
	}
	wg.Wait()

	b := New(cfg)
	if err := b.ImportState(a.ExportState()); err != nil {
		t.Fatal(err)
	}
	assertSnapshotsBitIdentical(t, a, b)
}

func TestImportValidation(t *testing.T) {
	cfg := Config{K: 4, Arms: 2, D: 2, Alpha: 1}
	src := New(cfg)
	src.Deliver([]transport.Tuple{{Code: 1, Action: 1, Reward: 0.5}})
	good := src.ExportState()

	// Shape mismatch.
	if err := New(Config{K: 5, Arms: 2, D: 2, Alpha: 1}).ImportState(good); err == nil {
		t.Fatal("want error for K mismatch")
	}
	// Truncated cells.
	bad := *good
	bad.CellCount = bad.CellCount[:3]
	if err := New(cfg).ImportState(&bad); err == nil {
		t.Fatal("want error for truncated cells")
	}
	// The centroid model is derived from the cells, so a decoder-less
	// export imports into a decoder server and feeds its centroid model.
	withDec := New(Config{K: 4, Arms: 2, D: 2, Alpha: 1, Decoder: gridDecoder{d: 2}})
	if err := withDec.ImportState(good); err != nil {
		t.Fatalf("decoder-less state into decoder server: %v", err)
	}
	if n := withDec.CentroidSnapshot().N; n[0] != 0 || n[1] != 1 {
		t.Fatalf("imported centroid pulls = %v, want [0 1]", n)
	}
	// Non-empty destination is refused.
	dst := New(cfg)
	dst.Deliver([]transport.Tuple{{Code: 0, Action: 0, Reward: 1}})
	if err := dst.ImportState(good); err == nil {
		t.Fatal("want error importing into a non-empty server")
	}
	// A clean destination still accepts it.
	if err := New(cfg).ImportState(good); err != nil {
		t.Fatalf("clean import failed: %v", err)
	}
}

func assertSnapshotsBitIdentical(t *testing.T, a, b *Server) {
	t.Helper()
	at, bt := a.TabularSnapshot(), b.TabularSnapshot()
	if at.K != bt.K || at.Arms != bt.Arms || at.Alpha != bt.Alpha {
		t.Fatalf("tabular shape diverged: %+v vs %+v", at, bt)
	}
	for i := range at.Count {
		if at.Count[i] != bt.Count[i] || at.Sum[i] != bt.Sum[i] {
			t.Fatalf("tabular cell %d diverged: (%v,%v) vs (%v,%v)", i, at.Count[i], at.Sum[i], bt.Count[i], bt.Sum[i])
		}
	}
	al, bl := a.LinUCBSnapshot(), b.LinUCBSnapshot()
	compareLin(t, "linucb", al.AInv, bl.AInv, al.B, bl.B, al.N, bl.N)
	ac, bc := a.CentroidSnapshot(), b.CentroidSnapshot()
	if (ac == nil) != (bc == nil) {
		t.Fatalf("centroid snapshot presence diverged")
	}
	if ac != nil {
		compareLin(t, "centroid", ac.AInv, bc.AInv, ac.B, bc.B, ac.N, bc.N)
	}
}

func compareLin(t *testing.T, name string, aInv, bInv, aB, bB [][]float64, aN, bN []int64) {
	t.Helper()
	for arm := range aInv {
		for i := range aInv[arm] {
			if aInv[arm][i] != bInv[arm][i] {
				t.Fatalf("%s AInv arm %d entry %d diverged: %v vs %v", name, arm, i, aInv[arm][i], bInv[arm][i])
			}
		}
		for i := range aB[arm] {
			if aB[arm][i] != bB[arm][i] {
				t.Fatalf("%s B arm %d entry %d diverged: %v vs %v", name, arm, i, aB[arm][i], bB[arm][i])
			}
		}
		if aN[arm] != bN[arm] {
			t.Fatalf("%s N arm %d diverged: %d vs %d", name, arm, aN[arm], bN[arm])
		}
	}
}
