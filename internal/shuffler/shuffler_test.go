package shuffler

import (
	"context"
	"sort"
	"sync"
	"testing"

	"p2b/internal/privacy"
	"p2b/internal/rng"
	"p2b/internal/transport"
)

// collector is a test sink that records every delivered batch.
type collector struct {
	mu      sync.Mutex
	batches [][]transport.Tuple
}

func (c *collector) Deliver(batch []transport.Tuple) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := append([]transport.Tuple(nil), batch...)
	c.batches = append(c.batches, cp)
}

func (c *collector) all() []transport.Tuple {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []transport.Tuple
	for _, b := range c.batches {
		out = append(out, b...)
	}
	return out
}

func envelope(device string, code int) transport.Envelope {
	return transport.Envelope{
		Meta:  transport.Metadata{DeviceID: device, Addr: "192.168.0.1:1", SentAt: 42},
		Tuple: transport.Tuple{Code: code, Action: 1, Reward: 0.5},
	}
}

func TestNewValidation(t *testing.T) {
	sink := &collector{}
	r := rng.New(1)
	cases := []func(){
		func() { New(Config{BatchSize: 0, Threshold: 1}, sink, r) },
		func() { New(Config{BatchSize: 10, Threshold: -1}, sink, r) },
		func() { New(Config{BatchSize: 10, Threshold: 1}, nil, r) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestBatchFlushesAtBatchSize(t *testing.T) {
	sink := &collector{}
	s := New(Config{BatchSize: 3, Threshold: 0}, sink, rng.New(2))
	s.Submit(envelope("a", 1))
	s.Submit(envelope("b", 1))
	if len(sink.batches) != 0 {
		t.Fatal("batch released early")
	}
	s.Submit(envelope("c", 1))
	if len(sink.batches) != 1 {
		t.Fatalf("batch not released at size: %d", len(sink.batches))
	}
	if s.Pending() != 0 {
		t.Fatalf("pending after flush: %d", s.Pending())
	}
}

func TestThresholdingEnforcesCrowdBlending(t *testing.T) {
	sink := &collector{}
	s := New(Config{BatchSize: 10, Threshold: 3}, sink, rng.New(3))
	// Code 1 appears 4 times (survives l=3), code 2 appears 2 times
	// (dropped), code 3 appears 4 times (survives).
	codes := []int{1, 1, 1, 1, 2, 2, 3, 3, 3, 3}
	for i, c := range codes {
		s.Submit(envelope(deviceName(i), c))
	}
	got := sink.all()
	var outCodes []int
	for _, tup := range got {
		outCodes = append(outCodes, tup.Code)
	}
	if !privacy.VerifyCrowdBlending(outCodes, 3) {
		t.Fatalf("output violates crowd-blending: %v", outCodes)
	}
	if len(got) != 8 {
		t.Fatalf("forwarded %d tuples, want 8", len(got))
	}
	for _, tup := range got {
		if tup.Code == 2 {
			t.Fatal("sub-threshold code leaked")
		}
	}
	st := s.Stats()
	if st.Received != 10 || st.Forwarded != 8 || st.Dropped != 2 || st.Batches != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func deviceName(i int) string { return string(rune('a' + i)) }

func TestOutputIsPermutationOfKeptTuples(t *testing.T) {
	sink := &collector{}
	s := New(Config{BatchSize: 100, Threshold: 0}, sink, rng.New(4))
	var want []int
	for i := 0; i < 100; i++ {
		code := i % 7
		want = append(want, code)
		s.Submit(transport.Envelope{Tuple: transport.Tuple{Code: code, Action: i % 3, Reward: 0.1}})
	}
	got := sink.all()
	if len(got) != 100 {
		t.Fatalf("forwarded %d", len(got))
	}
	var gotCodes []int
	for _, tup := range got {
		gotCodes = append(gotCodes, tup.Code)
	}
	sort.Ints(want)
	sort.Ints(gotCodes)
	for i := range want {
		if want[i] != gotCodes[i] {
			t.Fatal("output is not a permutation of input")
		}
	}
}

func TestShufflingActuallyPermutes(t *testing.T) {
	sink := &collector{}
	s := New(Config{BatchSize: 256, Threshold: 0}, sink, rng.New(5))
	for i := 0; i < 256; i++ {
		// Reward encodes the arrival index so we can detect reordering
		// without metadata.
		s.Submit(transport.Envelope{Tuple: transport.Tuple{Code: 0, Action: 0, Reward: float64(i)}})
	}
	got := sink.all()
	inOrder := 0
	for i, tup := range got {
		if int(tup.Reward) == i {
			inOrder++
		}
	}
	// A uniform permutation of 256 elements has ~1 fixed point on average.
	if inOrder > 20 {
		t.Fatalf("suspiciously many fixed points: %d", inOrder)
	}
}

func TestFlushProcessesPartialBatch(t *testing.T) {
	sink := &collector{}
	s := New(Config{BatchSize: 100, Threshold: 2}, sink, rng.New(6))
	s.Submit(envelope("a", 7))
	s.Submit(envelope("b", 7))
	s.Submit(envelope("c", 9)) // lone code: must be dropped by threshold
	s.Flush()
	got := sink.all()
	if len(got) != 2 {
		t.Fatalf("flushed %d tuples, want 2", len(got))
	}
	if s.Pending() != 0 {
		t.Fatal("pending not cleared by flush")
	}
	// Second flush with empty buffer is a no-op.
	s.Flush()
	if st := s.Stats(); st.Batches != 1 {
		t.Fatalf("empty flush created a batch: %+v", st)
	}
}

func TestThresholdZeroKeepsEverything(t *testing.T) {
	sink := &collector{}
	s := New(Config{BatchSize: 4, Threshold: 0}, sink, rng.New(7))
	for i := 0; i < 4; i++ {
		s.Submit(envelope(deviceName(i), i)) // all codes unique
	}
	if got := sink.all(); len(got) != 4 {
		t.Fatalf("forwarded %d, want 4", len(got))
	}
}

func TestWholeBatchBelowThresholdDropsAll(t *testing.T) {
	sink := &collector{}
	s := New(Config{BatchSize: 3, Threshold: 5}, sink, rng.New(8))
	for i := 0; i < 3; i++ {
		s.Submit(envelope(deviceName(i), i))
	}
	if got := sink.all(); len(got) != 0 {
		t.Fatalf("forwarded %d, want 0", len(got))
	}
	if st := s.Stats(); st.Dropped != 3 {
		t.Fatalf("dropped %d, want 3", st.Dropped)
	}
}

func TestConcurrentSubmit(t *testing.T) {
	sink := &collector{}
	s := New(Config{BatchSize: 64, Threshold: 0}, sink, rng.New(9))
	var wg sync.WaitGroup
	const workers, each = 8, 250
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.Submit(envelope(deviceName(w), i%5))
			}
		}(w)
	}
	wg.Wait()
	s.Flush()
	st := s.Stats()
	if st.Received != workers*each {
		t.Fatalf("received %d, want %d", st.Received, workers*each)
	}
	if st.Forwarded+st.Dropped != st.Received {
		t.Fatalf("conservation violated: %+v", st)
	}
	if got := int64(len(sink.all())); got != st.Forwarded {
		t.Fatalf("sink saw %d tuples, stats say %d", got, st.Forwarded)
	}
}

func TestRunConsumesBusUntilClose(t *testing.T) {
	sink := &collector{}
	s := New(Config{BatchSize: 10, Threshold: 0}, sink, rng.New(10))
	bus := transport.NewBus(16)
	done := make(chan struct{})
	go func() {
		s.Run(context.Background(), bus.Receive())
		close(done)
	}()
	for i := 0; i < 25; i++ {
		if err := bus.Send(envelope("d", i%3)); err != nil {
			t.Fatal(err)
		}
	}
	bus.Close()
	<-done
	// 25 submitted: two full batches of 10 plus a final flush of 5.
	if got := len(sink.all()); got != 25 {
		t.Fatalf("run forwarded %d, want 25", got)
	}
}

func TestRunStopsOnContextCancel(t *testing.T) {
	sink := &collector{}
	s := New(Config{BatchSize: 100, Threshold: 0}, sink, rng.New(11))
	bus := transport.NewBus(16)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		s.Run(ctx, bus.Receive())
		close(done)
	}()
	if err := bus.Send(envelope("d", 1)); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done
	// The buffered envelope may or may not have been submitted before
	// cancellation; if it was, the final flush forwarded it.
	st := s.Stats()
	if st.Received > 1 {
		t.Fatalf("received %d", st.Received)
	}
	bus.Close()
}

// TestAnonymization proves the privacy-critical property: nothing derived
// from envelope metadata can reach the sink, because the sink only ever
// sees bare tuples. This is enforced by the type system (Sink receives
// []transport.Tuple), so the test asserts the shape contract holds even
// after refactors via reflection-free compile-time usage plus a runtime
// check of tuple contents.
func TestAnonymization(t *testing.T) {
	sink := &collector{}
	s := New(Config{BatchSize: 2, Threshold: 0}, sink, rng.New(12))
	s.Submit(envelope("top-secret-device", 1))
	s.Submit(envelope("another-device", 1))
	for _, tup := range sink.all() {
		if tup != (transport.Tuple{Code: 1, Action: 1, Reward: 0.5}) {
			t.Fatalf("tuple mutated in flight: %+v", tup)
		}
	}
}

func TestSubmitTuplesMatchesSequentialSubmit(t *testing.T) {
	// The same tuple stream, fed in one SubmitTuples call versus one
	// Submit per envelope, must produce identical batches, identical
	// shuffles (same RNG stream) and identical stats — this is what lets
	// the HTTP batch route claim bit-identical server state.
	const n, batchSize, threshold = 137, 16, 3
	tuples := make([]transport.Tuple, n)
	r := rng.New(9)
	for i := range tuples {
		tuples[i] = transport.Tuple{Code: r.IntN(5), Action: r.IntN(3), Reward: r.Float64()}
	}

	single := &collector{}
	s1 := New(Config{BatchSize: batchSize, Threshold: threshold}, single, rng.New(77))
	for _, tup := range tuples {
		s1.Submit(transport.Envelope{Meta: transport.Metadata{DeviceID: "d"}, Tuple: tup})
	}
	s1.Flush()

	batched := &collector{}
	s2 := New(Config{BatchSize: batchSize, Threshold: threshold}, batched, rng.New(77))
	s2.SubmitTuples(tuples)
	s2.Flush()

	if s1.Stats() != s2.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", s1.Stats(), s2.Stats())
	}
	if len(single.batches) != len(batched.batches) {
		t.Fatalf("batch counts diverged: %d vs %d", len(single.batches), len(batched.batches))
	}
	for i := range single.batches {
		a, b := single.batches[i], batched.batches[i]
		if len(a) != len(b) {
			t.Fatalf("batch %d length: %d vs %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("batch %d tuple %d: %+v vs %+v", i, j, a[j], b[j])
			}
		}
	}
}

func TestSubmitTuplesCrossesMultipleBatchBoundaries(t *testing.T) {
	sink := &collector{}
	s := New(Config{BatchSize: 4, Threshold: 0}, sink, rng.New(5))
	tuples := make([]transport.Tuple, 11) // 2 full batches + 3 pending
	for i := range tuples {
		tuples[i] = transport.Tuple{Code: i, Action: 0, Reward: 1}
	}
	s.SubmitTuples(tuples)
	if len(sink.batches) != 2 {
		t.Fatalf("released %d batches, want 2", len(sink.batches))
	}
	if s.Pending() != 3 {
		t.Fatalf("pending %d, want 3", s.Pending())
	}
	st := s.Stats()
	if st.Received != 11 || st.Forwarded != 8 || st.Batches != 2 {
		t.Fatalf("stats %+v", st)
	}
	// Empty submission is a no-op.
	s.SubmitTuples(nil)
	if s.Stats() != st {
		t.Fatal("empty SubmitTuples changed stats")
	}
}

func TestSubmitTuplesConcurrent(t *testing.T) {
	sink := &collector{}
	s := New(Config{BatchSize: 32, Threshold: 0}, sink, rng.New(6))
	var wg sync.WaitGroup
	const workers, per = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chunk := make([]transport.Tuple, per)
			for i := range chunk {
				chunk[i] = transport.Tuple{Code: w, Action: 0, Reward: 1}
			}
			s.SubmitTuples(chunk[:per/2])
			s.SubmitTuples(chunk[per/2:])
		}(w)
	}
	wg.Wait()
	s.Flush()
	if got := len(sink.all()); got != workers*per {
		t.Fatalf("delivered %d tuples, want %d", got, workers*per)
	}
	if st := s.Stats(); st.Received != workers*per || st.Forwarded != workers*per {
		t.Fatalf("stats %+v", st)
	}
}

// TestCutAllocatesNothing: once warm, a full-batch SubmitTuples — append,
// cut, shuffle, threshold, deliver, recycle — makes no heap allocation.
// The cut runs for every batch a node ingests and for every batch a
// recovery replays, so a per-cut allocation is paid millions of times.
func TestCutAllocatesNothing(t *testing.T) {
	s := New(Config{BatchSize: 256, Threshold: 4}, SinkFunc(func([]transport.Tuple) {}), rng.New(1))
	batch := tupleStream(256, 64, 1)
	s.SubmitTuples(batch)
	if allocs := testing.AllocsPerRun(200, func() { s.SubmitTuples(batch) }); allocs != 0 {
		t.Fatalf("a full-batch SubmitTuples allocated %v times per call, want 0", allocs)
	}
	if st := s.Stats(); st.Batches != 202 || st.Forwarded == 0 || st.Dropped == 0 {
		t.Fatalf("the cuts did not threshold: %+v", st)
	}
}
