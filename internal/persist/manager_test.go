package persist

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/transport"
)

const (
	tK, tArms, tD = 32, 4, 3
	tBatch, tThr  = 16, 2
	tSeed         = 11
)

func newNode() (*shuffler.Shuffler, *server.Server) {
	srv := server.New(server.Config{K: tK, Arms: tArms, D: tD, Alpha: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: tBatch, Threshold: tThr}, srv, rng.New(tSeed).Split("shuffler"))
	return shuf, srv
}

// op is one ingestion step: a tuple chunk, or a flush when tuples is nil.
type op struct {
	tuples []transport.Tuple
	flush  bool
}

// opStream builds a deterministic mixed stream of chunk submissions and
// flushes, sized so batch boundaries fall mid-chunk and partial batches are
// pending at every cut point.
func opStream(n int, seed uint64) []op {
	r := rng.New(seed)
	out := make([]op, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && r.IntN(7) == 0 {
			out = append(out, op{flush: true})
			continue
		}
		chunk := make([]transport.Tuple, 1+r.IntN(13))
		for j := range chunk {
			chunk[j] = transport.Tuple{Code: r.IntN(8), Action: r.IntN(tArms), Reward: r.Float64()}
		}
		out = append(out, op{tuples: chunk})
	}
	return out
}

// cleanState runs ops directly (no persistence) and returns the resulting
// snapshots, JSON-encoded. Go's JSON float encoding round-trips exactly, so
// byte equality of these strings is bit equality of the models.
func cleanState(t *testing.T, ops []op) (string, string) {
	t.Helper()
	shuf, srv := newNode()
	for _, o := range ops {
		if o.flush {
			shuf.Flush()
		} else {
			shuf.SubmitTuples(o.tuples)
		}
	}
	return snapshotJSON(t, srv)
}

func snapshotJSON(t *testing.T, srv *server.Server) (string, string) {
	t.Helper()
	tab, err := json.Marshal(srv.TabularSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	lin, err := json.Marshal(srv.LinUCBSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(tab), string(lin)
}

func applyOps(t *testing.T, m *Manager, ops []op) {
	t.Helper()
	for _, o := range ops {
		var err error
		if o.flush {
			err = m.Flush()
		} else {
			err = m.SubmitTuples(o.tuples)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// The fundamental recovery property: ingest, crash (no checkpoint, no
// graceful flush), recover into fresh components — the recovered model
// state is bit-identical to a clean uninterrupted run over the same ops.
func TestRecoverWithoutCheckpointIsBitIdentical(t *testing.T) {
	dir := t.TempDir()
	ops := opStream(60, 3)
	wantTab, wantLin := cleanState(t, ops)

	shuf, srv := newNode()
	m, err := Open(dir, shuf, srv, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, m, ops)
	m.Close() // crash: nothing flushed, nothing checkpointed

	shuf2, srv2 := newNode()
	m2, err := Open(dir, shuf2, srv2, Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer m2.Close()
	gotTab, gotLin := snapshotJSON(t, srv2)
	if gotTab != wantTab {
		t.Fatal("tabular state diverged after recovery")
	}
	if gotLin != wantLin {
		t.Fatal("linucb state diverged after recovery")
	}
	rec := m2.Recovery()
	if rec.ReplayedRecords == 0 || rec.CheckpointSeq != 0 {
		t.Fatalf("recovery info %+v", rec)
	}
	// Shuffler counters also survive: pending + forwarded + dropped must
	// account for every logged tuple.
	var total int64
	for _, o := range ops {
		total += int64(len(o.tuples))
	}
	if st := shuf2.Stats(); st.Received != total {
		t.Fatalf("received %d after recovery, want %d", st.Received, total)
	}
}

// Checkpoint mid-stream, continue, crash: recovery restores the checkpoint
// and replays only the tail, and the result is still bit-identical — this
// exercises the exact export/import of the accumulators AND the RNG
// position carried in the checkpoint.
func TestRecoverFromCheckpointPlusTailIsBitIdentical(t *testing.T) {
	dir := t.TempDir()
	ops := opStream(80, 5)
	wantTab, wantLin := cleanState(t, ops)

	shuf, srv := newNode()
	m, err := Open(dir, shuf, srv, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, m, ops[:50])
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	applyOps(t, m, ops[50:])
	m.Close() // crash after the checkpoint

	shuf2, srv2 := newNode()
	m2, err := Open(dir, shuf2, srv2, Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer m2.Close()
	rec := m2.Recovery()
	if rec.CheckpointSeq == 0 {
		t.Fatalf("checkpoint not used: %+v", rec)
	}
	gotTab, gotLin := snapshotJSON(t, srv2)
	if gotTab != wantTab || gotLin != wantLin {
		t.Fatal("state diverged after checkpoint+tail recovery")
	}

	// A second cycle: keep ingesting, checkpoint, crash, recover again.
	more := opStream(30, 9)
	applyOps(t, m2, more)
	if err := m2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m2.Close()
	wantTab2, wantLin2 := cleanState(t, append(append([]op(nil), ops...), more...))
	shuf3, srv3 := newNode()
	m3, err := Open(dir, shuf3, srv3, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	gotTab2, gotLin2 := snapshotJSON(t, srv3)
	if gotTab2 != wantTab2 || gotLin2 != wantLin2 {
		t.Fatal("state diverged after second recovery cycle")
	}
}

// A torn tail — the partial record a kill -9 leaves mid-write — is
// truncated, and the recovered state equals a clean run over the records
// that survived.
func TestRecoverTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	ops := opStream(40, 7)

	shuf, srv := newNode()
	m, err := Open(dir, shuf, srv, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, m, ops)
	m.Close()

	// Tear the log: append half a record's worth of garbage, as if the
	// process died mid-write.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1].path
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x13, 0x37, 0x00, 0x00, 0x05})
	f.Close()

	wantTab, wantLin := cleanState(t, ops)
	shuf2, srv2 := newNode()
	m2, err := Open(dir, shuf2, srv2, Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("recovery with torn tail: %v", err)
	}
	defer m2.Close()
	if rec := m2.Recovery(); rec.TruncatedBytes == 0 {
		t.Fatalf("torn tail not truncated: %+v", rec)
	}
	gotTab, gotLin := snapshotJSON(t, srv2)
	if gotTab != wantTab || gotLin != wantLin {
		t.Fatal("state diverged after torn-tail recovery")
	}
}

// RetainWAL keeps fully-checkpointed segments so the complete input stream
// stays replayable from sequence 1; without it, covered segments are
// pruned.
func TestCheckpointPruningAndRetention(t *testing.T) {
	for _, retain := range []bool{false, true} {
		dir := t.TempDir()
		shuf, srv := newNode()
		m, err := Open(dir, shuf, srv, Options{RetainWAL: retain, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		applyOps(t, m, opStream(30, 2))
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		applyOps(t, m, opStream(10, 4))
		var replayable int
		if _, err := ReadLog(dir, 0, func(rec Record) error { replayable++; return nil }); err != nil {
			t.Fatal(err)
		}
		info := m.Info()
		m.Close()
		if retain {
			if info.Segments < 2 {
				t.Fatalf("retain: want >=2 segments, got %d", info.Segments)
			}
			if uint64(replayable) != info.WALSeq {
				t.Fatalf("retain: full history should replay %d records, got %d", info.WALSeq, replayable)
			}
		} else {
			if info.Segments != 1 {
				t.Fatalf("prune: want 1 segment, got %d", info.Segments)
			}
			if uint64(replayable) >= info.WALSeq {
				t.Fatalf("prune: covered records still replayable (%d of %d)", replayable, info.WALSeq)
			}
		}
		if info.CheckpointSeq == 0 {
			t.Fatal("checkpoint seq not recorded")
		}
	}
}

// Recovery must refuse to load state into a node configured with different
// model shapes — silently reshaping accumulators would corrupt the model.
func TestRecoverRefusesShapeMismatch(t *testing.T) {
	dir := t.TempDir()
	shuf, srv := newNode()
	m, err := Open(dir, shuf, srv, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, m, opStream(20, 6))
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.Close()

	srv2 := server.New(server.Config{K: tK * 2, Arms: tArms, D: tD, Alpha: 1})
	shuf2 := shuffler.New(shuffler.Config{BatchSize: tBatch, Threshold: tThr}, srv2, rng.New(tSeed))
	_, err = Open(dir, shuf2, srv2, Options{Logf: t.Logf})
	if err == nil || !strings.Contains(err.Error(), "persisted shape") {
		t.Fatalf("want shape mismatch error, got %v", err)
	}
}

// A checkpoint claiming coverage past the end of the log means log data was
// lost; recovery must refuse rather than serve a silently rewound model.
func TestRecoverRefusesCheckpointAheadOfLog(t *testing.T) {
	dir := t.TempDir()
	shuf, srv := newNode()
	m, err := Open(dir, shuf, srv, Options{RetainWAL: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, m, opStream(20, 8))
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	// Delete every segment: the checkpoint now points past the (empty) log.
	segs, _ := listSegments(dir)
	for _, s := range segs {
		os.Remove(s.path)
	}
	shuf2, srv2 := newNode()
	_, err = Open(dir, shuf2, srv2, Options{Logf: t.Logf})
	if err == nil || !strings.Contains(err.Error(), "checkpoint covers") {
		t.Fatalf("want checkpoint-ahead error, got %v", err)
	}
}

// An idle checkpoint tick must not rewrite the checkpoint: every input a
// node accepts is logged first, so an unmoved WAL means nothing changed.
func TestCheckpointSkipsWhenIdle(t *testing.T) {
	dir := t.TempDir()
	shuf, srv := newNode()
	m, err := Open(dir, shuf, srv, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	applyOps(t, m, opStream(10, 3))
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, CheckpointFile)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if !after.ModTime().Equal(before.ModTime()) {
		t.Fatal("idle checkpoint rewrote the checkpoint file")
	}
	// One logged op is enough to defeat the skip.
	applyOps(t, m, opStream(1, 4))
	time.Sleep(5 * time.Millisecond)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after2, _ := os.Stat(path)
	if after2.ModTime().Equal(before.ModTime()) {
		t.Fatal("a logged op did not trigger a new checkpoint")
	}
}

// Recovery applies records during its one scan of the log, so corruption
// in the middle of the log is found after the records before it have been
// applied. Open must still refuse to start, and what those records cut —
// the batches a relay would already have forwarded — must be exactly the
// first batches, in order, that a recovery of the undamaged log cuts:
// the same (epoch, seq) stream a downstream guard keeps exactly-once.
func TestMidLogCorruptionRefusesAfterCuttingOnlyThePrefix(t *testing.T) {
	old := maxSegmentBytes
	maxSegmentBytes = 2048
	defer func() { maxSegmentBytes = old }()

	dir := t.TempDir()
	shuf, srv := newNode()
	m, err := Open(dir, shuf, srv, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, m, opStream(300, 9))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	damaged := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(damaged, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(damaged)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("want a log of at least 4 segments, got %d", len(segs))
	}
	victim := segs[len(segs)/2].path
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	recoverCuts := func(dir string) ([][]transport.Tuple, error) {
		var cuts [][]transport.Tuple
		srv := server.New(server.Config{K: tK, Arms: tArms, D: tD, Alpha: 1})
		sink := shuffler.SinkFunc(func(b []transport.Tuple) {
			cuts = append(cuts, slices.Clone(b))
			srv.Deliver(b)
		})
		shuf := shuffler.New(shuffler.Config{BatchSize: tBatch, Threshold: tThr}, sink, rng.New(tSeed).Split("shuffler"))
		m, err := Open(dir, shuf, srv, Options{Logf: t.Logf})
		if err == nil {
			err = m.Close()
		}
		return cuts, err
	}
	want, err := recoverCuts(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := recoverCuts(damaged)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recovering a log corrupted mid-way: err = %v, want ErrCorrupt", err)
	}
	if len(got) == 0 || len(got) >= len(want) {
		t.Fatalf("the refused recovery cut %d batches, want a non-empty proper prefix of the clean recovery's %d", len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("batch %d cut before the refusal is %v, the clean recovery cut %v", i, got[i], want[i])
		}
	}
}
