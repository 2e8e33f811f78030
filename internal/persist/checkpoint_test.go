package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"maps"
	"math"
	"slices"
	"testing"

	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/transport"
)

// p2bnode's default shape: what model_sync runs, and the checkpoint whose
// load dominates a restart.
const (
	defK, defArms, defD = 1024, 20, 10
	defBatch, defThr    = 256, 2
)

// ckptNode is a server behind a shuffler whose cut batches are recorded.
type ckptNode struct {
	srv  *server.Server
	shuf *shuffler.Shuffler
	cuts [][]transport.Tuple
}

func newCkptNode(k, arms, d int, seed uint64) *ckptNode {
	n := &ckptNode{srv: server.New(server.Config{K: k, Arms: arms, D: d, Alpha: 1})}
	sink := shuffler.SinkFunc(func(batch []transport.Tuple) {
		n.cuts = append(n.cuts, slices.Clone(batch))
		n.srv.Deliver(batch)
	})
	n.shuf = shuffler.New(shuffler.Config{BatchSize: defBatch, Threshold: defThr}, sink, rng.New(seed).Split("shuffler"))
	return n
}

// fracTuples returns n tuples over codes [0, codes) with rewards drawn
// from [-1, 1], the range the wire accepts: {0, 1} rewards would hide any
// rounding, since their sums are small integers.
func fracTuples(r *rng.Rand, n, codes, arms int) []transport.Tuple {
	ts := make([]transport.Tuple, n)
	for i := range ts {
		ts[i] = transport.Tuple{Code: r.IntN(codes), Action: r.IntN(arms), Reward: 2*r.Float64() - 1}
	}
	return ts
}

// filledCheckpoint drives a node of shape (k, arms, d) until every
// checkpoint section is populated — fractional cells, the lin accumulator,
// a two-origin relay guard, pending tuples behind an advanced RNG — and
// captures it the way Manager.Checkpoint does, with a relay cursor.
func filledCheckpoint(tb testing.TB, k, arms, d, tuples int) (*ckptNode, *Checkpoint) {
	tb.Helper()
	r := rng.New(5)
	n := newCkptNode(k, arms, d, 17)
	n.srv.Deliver(fracTuples(r, tuples, k, arms))
	for i := 0; i < 50; i++ {
		ctx := make([]float64, d)
		for j := range ctx {
			ctx[j] = 2*r.Float64() - 1
		}
		if err := n.srv.IngestRaw(transport.RawTuple{Context: ctx, Action: r.IntN(arms), Reward: 2*r.Float64() - 1}); err != nil {
			tb.Fatal(err)
		}
	}
	n.srv.DeliverPeerBatch("relay-b", 7, 3, fracTuples(r, 40, k, arms))
	n.srv.DeliverPeerBatch("relay-a", 1<<40, 12, fracTuples(r, 40, k, arms))
	// 100 codes, so thresholding keeps most of each cut and drops some.
	n.shuf.SubmitTuples(fracTuples(r, 3*defBatch+37, 100, arms))
	st, err := n.shuf.Drain()
	if err != nil {
		tb.Fatal(err)
	}
	if len(st.Pending) != 37 || st.Stats.Batches != 3 || st.Stats.Forwarded == 0 || st.Stats.Dropped == 0 {
		tb.Fatalf("setup left %d pending and counters %+v, want 37 pending and 3 batches that kept and dropped tuples", len(st.Pending), st.Stats)
	}
	if err := n.shuf.Restore(st); err != nil {
		tb.Fatal(err)
	}
	return n, &Checkpoint{
		WALSeq:   987654,
		Server:   n.srv.ExportState(),
		Shuffler: st,
		Relay:    &RelayCursor{Epoch: 1<<62 + 9, Seq: 33},
	}
}

// jsonCheckpointFile encodes c the way version 1 wrote every checkpoint.
func jsonCheckpointFile(tb testing.TB, c *Checkpoint) []byte {
	tb.Helper()
	body, err := json.Marshal(c)
	if err != nil {
		tb.Fatal(err)
	}
	buf := make([]byte, ckptHeaderLen, ckptHeaderLen+len(body))
	copy(buf, ckptMagic)
	buf[4] = ckptVersionJSON
	binary.LittleEndian.PutUint32(buf[5:9], crc32.Checksum(body, crcTable))
	binary.LittleEndian.PutUint32(buf[9:13], uint32(len(body)))
	return append(buf, body...)
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func sameServerState(tb testing.TB, got, want *server.PersistedState) {
	tb.Helper()
	if got.K != want.K || got.Arms != want.Arms || got.D != want.D ||
		math.Float64bits(got.Alpha) != math.Float64bits(want.Alpha) ||
		got.Tuples != want.Tuples || got.Raw != want.Raw || got.Snapshots != want.Snapshots {
		tb.Fatalf("server header: got k=%d arms=%d d=%d alpha=%v tuples=%d raw=%d snapshots=%d, want %d %d %d %v %d %d %d",
			got.K, got.Arms, got.D, got.Alpha, got.Tuples, got.Raw, got.Snapshots,
			want.K, want.Arms, want.D, want.Alpha, want.Tuples, want.Raw, want.Snapshots)
	}
	if !sameBits(got.CellCount, want.CellCount) || !sameBits(got.CellSum, want.CellSum) {
		tb.Fatal("tabular cells differ")
	}
	if !slices.EqualFunc(got.Lin.A, want.Lin.A, sameBits) || !slices.EqualFunc(got.Lin.B, want.Lin.B, sameBits) ||
		!slices.Equal(got.Lin.N, want.Lin.N) {
		tb.Fatal("lin accumulator differs")
	}
	if !maps.Equal(got.Relays, want.Relays) {
		tb.Fatalf("relay guard: got %v, want %v", got.Relays, want.Relays)
	}
}

func sameShufflerState(tb testing.TB, got, want *shuffler.State) {
	tb.Helper()
	if got.Stats != want.Stats || !bytes.Equal(got.RNG, want.RNG) {
		tb.Fatalf("shuffler: got %+v rng %x, want %+v rng %x", got.Stats, got.RNG, want.Stats, want.RNG)
	}
	if !sameTuples(got.Pending, want.Pending) {
		tb.Fatal("pending tuples differ")
	}
}

func sameTuples(a, b []transport.Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y transport.Tuple) bool {
		return x.Code == y.Code && x.Action == y.Action && math.Float64bits(x.Reward) == math.Float64bits(y.Reward)
	})
}

// A restart through a checkpoint at the default shape is invisible: the
// restored node exports and drains the same bits as the node that wrote
// it, and cuts the same next batch as an un-restarted twin. A version-1
// (JSON) file of the same state loads to the same values.
func TestCheckpointRestartIsBitExactAtDefaultShape(t *testing.T) {
	live, ckpt := filledCheckpoint(t, defK, defArms, defD, 60_000)
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, ckpt); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.WALSeq != ckpt.WALSeq || got.Relay == nil || *got.Relay != *ckpt.Relay {
		t.Fatalf("position: got seq %d relay %+v, want %d %+v", got.WALSeq, got.Relay, ckpt.WALSeq, ckpt.Relay)
	}
	restarted := newCkptNode(defK, defArms, defD, 99) // another seed: the RNG must come from the file
	if err := restarted.srv.ImportState(got.Server); err != nil {
		t.Fatal(err)
	}
	if err := restarted.shuf.Restore(got.Shuffler); err != nil {
		t.Fatal(err)
	}
	sameServerState(t, restarted.srv.ExportState(), live.srv.ExportState())
	for _, n := range []*ckptNode{live, restarted} {
		st, err := n.shuf.Drain()
		if err != nil {
			t.Fatal(err)
		}
		sameShufflerState(t, st, ckpt.Shuffler)
		if err := n.shuf.Restore(st); err != nil {
			t.Fatal(err)
		}
	}

	next := fracTuples(rng.New(6), defBatch, 100, defArms)
	live.shuf.SubmitTuples(next)
	restarted.shuf.SubmitTuples(next)
	if len(restarted.cuts) != 1 || len(live.cuts) != 4 || !sameTuples(restarted.cuts[0], live.cuts[3]) {
		t.Fatal("the restarted node cut a different next batch than its twin")
	}
	sameServerState(t, restarted.srv.ExportState(), live.srv.ExportState())

	old, err := decodeCheckpoint(jsonCheckpointFile(t, ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if old.WALSeq != got.WALSeq || *old.Relay != *got.Relay {
		t.Fatalf("version 1 position: seq %d relay %+v", old.WALSeq, old.Relay)
	}
	sameServerState(t, old.Server, got.Server)
	sameShufflerState(t, old.Shuffler, got.Shuffler)
}

// resealedCheckpoint returns a copy of data whose header length and CRC
// match its body, so fuzz mutations reach the body decoders.
func resealedCheckpoint(data []byte) []byte {
	out := bytes.Clone(data)
	if len(out) >= ckptHeaderLen {
		body := out[ckptHeaderLen:]
		binary.LittleEndian.PutUint32(out[5:9], crc32.Checksum(body, crcTable))
		binary.LittleEndian.PutUint32(out[9:13], uint32(len(body)))
	}
	return out
}

// FuzzDecodeCheckpoint checks the checkpoint decoder on both versions: it
// never panics, the RNG state it accepts never panics the RNG, and on
// version 2 it allocates at most a constant multiple of its input and
// accepts only bytes it would write itself. Beside the checkpoint built
// here, testdata/fuzz/FuzzDecodeCheckpoint seeds it with the
// centroid-era version-1 file.
func FuzzDecodeCheckpoint(f *testing.F) {
	_, small := filledCheckpoint(f, 4, 2, 2, 30)
	v2, err := encodeCheckpoint(small)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealedCheckpoint(data)} {
			var c *Checkpoint
			var err error
			grew := allocated(func() { c, err = decodeCheckpoint(in) })
			v2 := len(in) > 4 && in[4] == ckptVersion
			if limit := 64<<10 + 8*uint64(len(in)); v2 && grew > limit {
				t.Fatalf("decoding %d bytes allocated %d, limit %d", len(in), grew, limit)
			}
			if err != nil {
				continue
			}
			if c.Shuffler != nil && len(c.Shuffler.RNG) > 0 {
				_ = rng.New(1).UnmarshalBinary(c.Shuffler.RNG)
			}
			if !v2 {
				continue
			}
			again, err := encodeCheckpoint(c)
			if err != nil {
				t.Fatalf("accepted checkpoint does not re-encode: %v", err)
			}
			if !bytes.Equal(again, in) {
				t.Fatalf("accepted checkpoint re-encodes differently:\n in %x\nout %x", in, again)
			}
		}
	})
}

// The per-stage cost of a restart's checkpoint at the default shape.
func BenchmarkCheckpointLoad(b *testing.B) {
	_, ckpt := filledCheckpoint(b, defK, defArms, defD, 60_000)
	dir := b.TempDir()
	if err := WriteCheckpoint(dir, ckpt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadCheckpoint(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointWrite includes the file's fsync and rename.
func BenchmarkCheckpointWrite(b *testing.B) {
	_, ckpt := filledCheckpoint(b, defK, defArms, defD, 60_000)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteCheckpoint(dir, ckpt); err != nil {
			b.Fatal(err)
		}
	}
}
