package server

import (
	"math"
	"sync"
	"testing"

	"p2b/internal/bandit"
	"p2b/internal/mat"
	"p2b/internal/rng"
	"p2b/internal/transport"
)

func newTestServer() *Server {
	return New(Config{K: 4, Arms: 3, D: 2, Alpha: 1, Seed: 1})
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{K: 0, Arms: 1, D: 1},
		{K: 1, Arms: 0, D: 1},
		{K: 1, Arms: 1, D: 0},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestDeliverUpdatesTabularModel(t *testing.T) {
	s := newTestServer()
	s.Deliver([]transport.Tuple{
		{Code: 1, Action: 2, Reward: 1},
		{Code: 1, Action: 2, Reward: 1},
		{Code: 3, Action: 0, Reward: 0},
	})
	snap := s.TabularSnapshot()
	model, err := bandit.NewTabularUCBFromState(snap, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	// Cell (1, 2): two rewards of 1 -> mean 2/3, width 1/sqrt(3).
	want := 2.0/3.0 + 1/math.Sqrt(3)
	if got := model.ScoreCode(1, 2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("score = %v, want %v", got, want)
	}
	if st := s.Stats(); st.TuplesIngested != 3 {
		t.Fatalf("ingested %d, want 3", st.TuplesIngested)
	}
}

func TestDeliverDropsMalformedTuples(t *testing.T) {
	s := newTestServer()
	s.Deliver([]transport.Tuple{
		{Code: -1, Action: 0, Reward: 1},
		{Code: 99, Action: 0, Reward: 1},
		{Code: 0, Action: -1, Reward: 1},
		{Code: 0, Action: 50, Reward: 1},
	})
	if st := s.Stats(); st.TuplesIngested != 0 {
		t.Fatalf("malformed tuples ingested: %d", st.TuplesIngested)
	}
}

func TestDeliverClampsRewards(t *testing.T) {
	s := newTestServer()
	s.Deliver([]transport.Tuple{{Code: 0, Action: 0, Reward: 99}})
	s.Deliver([]transport.Tuple{{Code: 1, Action: 0, Reward: -99}})
	model, err := bandit.NewTabularUCBFromState(s.TabularSnapshot(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Clamped to +1: mean = 1/2.
	want := 0.5 + 1/math.Sqrt(2)
	if got := model.ScoreCode(0, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("score = %v, want %v (reward not clamped?)", got, want)
	}
	// Clamped to -1: mean = -1/2.
	want = -0.5 + 1/math.Sqrt(2)
	if got := model.ScoreCode(1, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("score = %v, want %v (negative reward not clamped?)", got, want)
	}
	// A legitimate small negative (synthetic noise) passes through.
	s.Deliver([]transport.Tuple{{Code: 2, Action: 0, Reward: -0.05}})
	want = -0.05/2 + 1/math.Sqrt(2)
	if got := model2(t, s).ScoreCode(2, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("score = %v, want %v", got, want)
	}
}

func model2(t *testing.T, s *Server) *bandit.TabularUCB {
	t.Helper()
	m, err := bandit.NewTabularUCBFromState(s.TabularSnapshot(), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestIngestRawValidation(t *testing.T) {
	s := newTestServer()
	if err := s.IngestRaw(transport.RawTuple{Context: []float64{1}, Action: 0, Reward: 1}); err == nil {
		t.Fatal("wrong-dimension context accepted")
	}
	if err := s.IngestRaw(transport.RawTuple{Context: []float64{1, 0}, Action: 7, Reward: 1}); err == nil {
		t.Fatal("out-of-range action accepted")
	}
	if err := s.IngestRaw(transport.RawTuple{Context: []float64{1, 0}, Action: 1, Reward: 1}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.RawIngested != 1 {
		t.Fatalf("raw ingested %d, want 1", st.RawIngested)
	}
}

func TestLinUCBSnapshotReflectsRawData(t *testing.T) {
	s := newTestServer()
	x := []float64{1, 0}
	for i := 0; i < 30; i++ {
		if err := s.IngestRaw(transport.RawTuple{Context: x, Action: 0, Reward: 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.IngestRaw(transport.RawTuple{Context: x, Action: 1, Reward: 0}); err != nil {
			t.Fatal(err)
		}
	}
	model, err := bandit.NewLinUCBFromState(s.LinUCBSnapshot(), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if model.Score(x, 0) <= model.Score(x, 1) {
		t.Fatal("global LinUCB did not learn from raw stream")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s := newTestServer()
	snap1 := s.TabularSnapshot()
	s.Deliver([]transport.Tuple{{Code: 0, Action: 0, Reward: 1}})
	snap2 := s.TabularSnapshot()
	if snap1.Count[0] == snap2.Count[0] {
		t.Fatal("second snapshot should reflect the delivery")
	}
	// Mutating a snapshot must not corrupt the server.
	snap2.Count[0] = 1e9
	snap3 := s.TabularSnapshot()
	if snap3.Count[0] == 1e9 {
		t.Fatal("snapshot aliases server state")
	}
}

func TestStatsCountsSnapshots(t *testing.T) {
	s := newTestServer()
	s.TabularSnapshot()
	s.LinUCBSnapshot()
	if st := s.Stats(); st.Snapshots != 2 {
		t.Fatalf("snapshots %d, want 2", st.Snapshots)
	}
}

func TestConcurrentDeliverAndSnapshot(t *testing.T) {
	// With a decoder, centroid reads derive from the tabular snapshot while
	// deliveries race them.
	s := New(Config{K: 4, Arms: 3, D: 2, Alpha: 1, Decoder: gridDecoder{d: 2}})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Deliver([]transport.Tuple{{Code: i % 4, Action: i % 3, Reward: 0.5}})
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = s.TabularSnapshot()
				_ = s.CentroidSnapshot()
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.TuplesIngested != 2000 {
		t.Fatalf("ingested %d, want 2000", st.TuplesIngested)
	}
	var pulls int64
	for _, n := range s.CentroidSnapshot().N {
		pulls += n
	}
	if pulls != 2000 {
		t.Fatalf("centroid model holds %d pulls, want 2000", pulls)
	}
}

func TestConfigAccessor(t *testing.T) {
	s := newTestServer()
	cfg := s.Config()
	if cfg.K != 4 || cfg.Arms != 3 || cfg.D != 2 {
		t.Fatalf("config %+v", cfg)
	}
}

func TestVersionedModelGetters(t *testing.T) {
	s := newTestServer()
	if v := s.ModelVersion(); v != 0 {
		t.Fatalf("fresh server at version %d", v)
	}
	st, v := s.TabularModel()
	if v != 0 || st == nil {
		t.Fatalf("empty snapshot versioned %d", v)
	}
	s.Deliver([]transport.Tuple{{Code: 1, Action: 1, Reward: 1}})
	st2, v2 := s.TabularModel()
	if v2 <= v {
		t.Fatalf("version did not advance on Deliver: %d -> %d", v, v2)
	}
	if st2.Count[1*3+1] != 1 {
		t.Fatalf("snapshot at version %d misses the delivered tuple", v2)
	}
	// The raw model advances the same counter.
	if err := s.IngestRaw(transport.RawTuple{Context: []float64{1, 0}, Action: 0, Reward: 1}); err != nil {
		t.Fatal(err)
	}
	lin, v3 := s.LinUCBModel()
	if v3 <= v2 || lin.N[0] != 1 {
		t.Fatalf("raw ingest not reflected: version %d -> %d, N=%v", v2, v3, lin.N)
	}
	// Versions are monotonic under concurrent ingestion.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := s.ModelVersion()
			if v < last {
				t.Error("model version regressed")
				return
			}
			last = v
		}
	}()
	for i := 0; i < 50; i++ {
		s.Deliver([]transport.Tuple{{Code: i % 4, Action: i % 3, Reward: 0.5}})
	}
	close(stop)
	wg.Wait()
}

func TestSharedSnapshotIdentity(t *testing.T) {
	s := newTestServer()
	s.Deliver([]transport.Tuple{{Code: 0, Action: 0, Reward: 1}})
	// Reads at an unchanged version share one immutable master: the very
	// point of the read path is that a fleet-wide warm start costs one
	// build, not one copy per caller.
	st1, v1 := s.TabularModel()
	st2, v2 := s.TabularModel()
	if v1 != v2 || st1 != st2 {
		t.Fatalf("unchanged version did not share the snapshot: %p/%d vs %p/%d", st1, v1, st2, v2)
	}
	// The explicit-copy API hands out private state.
	snap := s.TabularSnapshot()
	if snap == st1 {
		t.Fatal("TabularSnapshot returned the shared master, not a copy")
	}
	snap.Count[0] = 1e9
	if st3, _ := s.TabularModel(); st3.Count[0] == 1e9 {
		t.Fatal("mutating a TabularSnapshot clone reached the shared master")
	}
	// A version bump publishes a fresh master.
	s.Deliver([]transport.Tuple{{Code: 1, Action: 1, Reward: 1}})
	st4, v4 := s.TabularModel()
	if v4 <= v1 || st4 == st1 {
		t.Fatalf("version bump did not rebuild: %p/%d vs %p/%d", st1, v1, st4, v4)
	}
	// Same contract on the linear models.
	if err := s.IngestRaw(transport.RawTuple{Context: []float64{1, 0}, Action: 0, Reward: 1}); err != nil {
		t.Fatal(err)
	}
	l1, _ := s.LinUCBModel()
	l2, _ := s.LinUCBModel()
	if l1 != l2 {
		t.Fatal("unchanged version did not share the LinUCB snapshot")
	}
	if c := s.LinUCBSnapshot(); c == l1 {
		t.Fatal("LinUCBSnapshot returned the shared master, not a copy")
	}
}

func TestStatsCountSnapshotCache(t *testing.T) {
	s := newTestServer()
	s.Deliver([]transport.Tuple{{Code: 0, Action: 0, Reward: 1}})
	s.TabularModel() // build
	s.TabularModel() // hit
	s.TabularModel() // hit
	st := s.Stats()
	if st.SnapshotBuilds != 1 {
		t.Fatalf("builds = %d, want 1", st.SnapshotBuilds)
	}
	if st.SnapshotHits != 2 {
		t.Fatalf("hits = %d, want 2", st.SnapshotHits)
	}
	s.Deliver([]transport.Tuple{{Code: 0, Action: 0, Reward: 1}})
	s.TabularModel() // rebuild
	if st := s.Stats(); st.SnapshotBuilds != 2 || st.SnapshotHits != 2 {
		t.Fatalf("after bump: builds=%d hits=%d, want 2/2", st.SnapshotBuilds, st.SnapshotHits)
	}
}

// TestInvertArmsParallelBitExact pins the exactness contract of the
// parallelized snapshot build: per-arm inversions are independent, so any
// worker count must produce bit-identical state.
func TestInvertArmsParallelBitExact(t *testing.T) {
	const d, arms = 24, 8
	build := func() []*mat.Dense {
		rr := rng.New(11) // same accumulators for every schedule
		sums := make([]*mat.Dense, arms)
		for a := range sums {
			sums[a] = mat.NewDense(d)
			for i := 0; i < 50; i++ {
				x := rr.Simplex(d)
				sums[a].AddOuter(x, 1)
			}
		}
		return sums
	}
	run := func(workers int) *bandit.LinUCBState {
		st := &bandit.LinUCBState{
			D: d, Arms: arms,
			AInv: make([][]float64, arms),
			B:    make([][]float64, arms),
			N:    make([]int64, arms),
		}
		invertArms(st, build(), d, workers)
		return st
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		for a := 0; a < arms; a++ {
			for i, v := range got.AInv[a] {
				if v != serial.AInv[a][i] {
					t.Fatalf("workers=%d arm %d element %d: %v != %v", workers, a, i, v, serial.AInv[a][i])
				}
			}
		}
	}
}
