package shuffler

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"p2b/internal/privacy"
	"p2b/internal/rng"
	"p2b/internal/transport"
)

// TestPropertyOutputAlwaysCrowdBlended: for any batch contents and any
// threshold, everything the sink receives satisfies the crowd-blending
// invariant and conservation holds. This is the system's privacy contract
// as a property.
func TestPropertyOutputAlwaysCrowdBlended(t *testing.T) {
	if err := quick.Check(func(seed uint16, rawCodes []uint8, threshold uint8) bool {
		if len(rawCodes) == 0 {
			return true
		}
		l := int(threshold % 8)
		sink := &collector{}
		s := New(Config{BatchSize: 16, Threshold: l}, sink, rng.New(uint64(seed)))
		for i, c := range rawCodes {
			s.Submit(transport.Envelope{
				Meta:  transport.Metadata{DeviceID: deviceName(i % 26)},
				Tuple: transport.Tuple{Code: int(c % 10), Action: 0, Reward: 0.5},
			})
		}
		s.Flush()
		// Every delivered batch individually satisfies the threshold.
		sink.mu.Lock()
		defer sink.mu.Unlock()
		delivered := 0
		for _, batch := range sink.batches {
			codes := make([]int, len(batch))
			for i, tup := range batch {
				codes[i] = tup.Code
			}
			if !privacy.VerifyCrowdBlending(codes, l) {
				return false
			}
			delivered += len(batch)
		}
		st := s.Stats()
		return st.Received == int64(len(rawCodes)) &&
			st.Forwarded == int64(delivered) &&
			st.Forwarded+st.Dropped == st.Received
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRewardsSurviveUnchanged: shuffling and thresholding must not
// alter tuple payloads, only drop or reorder them.
func TestPropertyRewardsSurviveUnchanged(t *testing.T) {
	if err := quick.Check(func(seed uint16, n uint8) bool {
		count := int(n%50) + 1
		sink := &collector{}
		s := New(Config{BatchSize: 8, Threshold: 0}, sink, rng.New(uint64(seed)))
		want := map[float64]bool{}
		for i := 0; i < count; i++ {
			r := float64(i) / 100
			want[r] = true
			s.Submit(transport.Envelope{Tuple: transport.Tuple{Code: 1, Action: 2, Reward: r}})
		}
		s.Flush()
		for _, tup := range sink.all() {
			if tup.Code != 1 || tup.Action != 2 || !want[tup.Reward] {
				return false
			}
		}
		return len(sink.all()) == count
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refShuffler is the shuffler's cut with thresholding written as the plain
// definition — a fresh map of code counts per batch — driven by the same
// permutation stream. The reused counting table must match it exactly.
type refShuffler struct {
	cfg     Config
	r       *rng.Rand
	buf     []transport.Tuple
	stats   Stats
	batches [][]transport.Tuple
}

func (f *refShuffler) submit(tuples []transport.Tuple) {
	f.stats.Received += int64(len(tuples))
	for _, t := range tuples {
		f.buf = append(f.buf, t)
		if len(f.buf) == f.cfg.BatchSize {
			f.cut()
		}
	}
}

func (f *refShuffler) flush() {
	if len(f.buf) > 0 {
		f.cut()
	}
}

func (f *refShuffler) cut() {
	batch := f.buf
	f.buf = nil
	f.r.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	freq := map[int]int{}
	for _, t := range batch {
		freq[t.Code]++
	}
	var kept []transport.Tuple
	for _, t := range batch {
		if freq[t.Code] >= f.cfg.Threshold {
			kept = append(kept, t)
		} else {
			f.stats.Dropped++
		}
	}
	f.stats.Forwarded += int64(len(kept))
	f.stats.Batches++
	if len(kept) > 0 {
		f.batches = append(f.batches, kept)
	}
}

// codePool returns codes that stress the counting table: negative, huge and
// extreme values, plus codes whose probes all start in the same slot of a
// table sized for batch, so they can only be told apart by linear probing.
func codePool(r *rng.Rand, batch int) []int {
	codes := []int{0, 1, -1, 2, -2, math.MaxInt, math.MinInt, math.MaxInt - 1, math.MinInt + 1,
		1 << 40, -(1 << 40), math.MaxInt32, math.MinInt32}
	var probe codeCounts
	probe.reset(batch)
	for len(codes) < 40 {
		c := int(r.Uint64())
		if probe.home(c) == 0 {
			codes = append(codes, c)
		}
	}
	return codes
}

// TestPropertyCutMatchesMapCount: for random streams over adversarial codes,
// chunkings, flushes, a restored pending buffer and a generation stamp about
// to wrap, the shuffler delivers exactly the batches — same tuples, same
// order — and the stats of the map-counting definition.
func TestPropertyCutMatchesMapCount(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		r := rng.New(uint64(trial) + 1)
		cfg := Config{BatchSize: 1 + r.IntN(64), Threshold: r.IntN(6)}
		if trial%10 == 0 {
			cfg.BatchSize = 256
		}
		pool := codePool(r, cfg.BatchSize)
		tuple := func(i int) transport.Tuple {
			var code int
			switch r.IntN(3) {
			case 0:
				code = pool[r.IntN(len(pool))]
			case 1:
				code = r.IntN(8)
			default:
				code = int(r.Uint64())
			}
			return transport.Tuple{Code: code, Action: i, Reward: float64(i) / 3}
		}

		sink := &collector{}
		s := New(cfg, sink, rng.New(uint64(trial)))
		ref := &refShuffler{cfg: cfg, r: rng.New(uint64(trial))}
		if trial%3 == 0 {
			// Start from a restored pending buffer and permutation position.
			st := &State{Stats: Stats{Received: 7, Forwarded: 3, Dropped: 4, Batches: 1}}
			for i, n := 0, r.IntN(cfg.BatchSize); i < n; i++ {
				st.Pending = append(st.Pending, tuple(-1-i))
			}
			ref.r.IntN(1000)
			if st.RNG, _ = ref.r.MarshalBinary(); s.Restore(st) != nil {
				t.Fatalf("trial %d: restore refused", trial)
			}
			ref.buf = append(ref.buf, st.Pending...)
			ref.stats = st.Stats
		}
		wrap := trial%4 == 0
		for op := 0; op < 40; op++ {
			if wrap && op == 20 {
				// Stamp the next cuts just below the wrap, so the stamps the
				// earlier cuts left would read as live again after it.
				s.counts.gen = math.MaxUint32 - uint32(r.IntN(3))
			}
			switch r.IntN(4) {
			case 0:
				s.Flush()
				ref.flush()
			case 1:
				// A full batch of distinct codes: the table at its fullest.
				chunk := make([]transport.Tuple, cfg.BatchSize)
				for i := range chunk {
					chunk[i] = transport.Tuple{Code: i * (pool[len(pool)-1] | 1), Action: i}
				}
				s.SubmitTuples(chunk)
				ref.submit(chunk)
			default:
				chunk := make([]transport.Tuple, r.IntN(3*cfg.BatchSize))
				for i := range chunk {
					chunk[i] = tuple(op*1000 + i)
				}
				s.SubmitTuples(chunk)
				ref.submit(chunk)
			}
		}
		s.Flush()
		ref.flush()
		if wrap && s.counts.gen > 1000 {
			t.Fatalf("trial %d: generation stamp %d never wrapped", trial, s.counts.gen)
		}
		if got := s.Stats(); got != ref.stats {
			t.Fatalf("trial %d (%+v): stats %+v, want %+v", trial, cfg, got, ref.stats)
		}
		if len(sink.batches) != len(ref.batches) {
			t.Fatalf("trial %d (%+v): %d batches delivered, want %d", trial, cfg, len(sink.batches), len(ref.batches))
		}
		for b := range ref.batches {
			if !slices.Equal(sink.batches[b], ref.batches[b]) {
				t.Fatalf("trial %d (%+v): batch %d is %v, want %v", trial, cfg, b, sink.batches[b], ref.batches[b])
			}
		}
	}
}

// TestCountStampWraparound: once the generation stamp wraps, the stamps
// of batches 2^32 cuts old would read as current. The table must wipe
// them, or a code counted long ago would lend its old count to a batch
// where it occurs once.
func TestCountStampWraparound(t *testing.T) {
	sink := &collector{}
	s := New(Config{BatchSize: 4, Threshold: 2}, sink, rng.New(1))
	codes := func(cs ...int) []transport.Tuple {
		out := make([]transport.Tuple, len(cs))
		for i, c := range cs {
			out[i] = transport.Tuple{Code: c}
		}
		return out
	}
	s.SubmitTuples(codes(7, 7, 7, 7)) // code 7 counted 4 times under some stamp g
	stamp := s.counts.gen
	s.counts.gen = math.MaxUint32 - 1
	for s.counts.gen != stamp-1 {
		s.SubmitTuples(codes(1, 1, 1, 1)) // cut until the next stamp is g again
	}
	s.SubmitTuples(codes(7, 8, 9, 10)) // every code once: all dropped
	if st := s.Stats(); st.Forwarded != 4*(st.Batches-1) || st.Dropped != 4 {
		t.Fatalf("after the stamp wrapped, stats %+v: want only the last batch dropped", st)
	}
}
