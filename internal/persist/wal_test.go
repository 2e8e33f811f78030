package persist

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"p2b/internal/transport"
)

func testTuples(n int, base int) []transport.Tuple {
	out := make([]transport.Tuple, n)
	for i := range out {
		out[i] = transport.Tuple{Code: base + i, Action: i % 3, Reward: float64(i) / 7}
	}
	return out
}

func collectReplay(t *testing.T, w *WAL, after uint64) []Record {
	t.Helper()
	var recs []Record
	_, err := ReadLog(w.dir, after, func(rec Record) error {
		recs = append(recs, Record{
			Seq:    rec.Seq,
			Type:   rec.Type,
			Tuples: append([]transport.Tuple(nil), rec.Tuples...),
		})
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, info, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.LastSeq != 0 || info.Records != 0 {
		t.Fatalf("fresh wal recovered %+v", info)
	}
	in1 := testTuples(5, 0)
	if _, err := w.AppendTuples(in1, true); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendFlush(false); err != nil {
		t.Fatal(err)
	}
	in2 := testTuples(3, 100)
	seq, err := w.AppendTuples(in2, false)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("last seq %d, want 3", seq)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, info2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info2.LastSeq != 3 || info2.Records != 3 || info2.TruncatedBytes != 0 {
		t.Fatalf("reopen recovered %+v", info2)
	}
	recs := collectReplay(t, w2, 0)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	if recs[0].Type != RecordTuples || len(recs[0].Tuples) != 5 || recs[0].Tuples[2] != in1[2] {
		t.Fatalf("record 0 wrong: %+v", recs[0])
	}
	if recs[1].Type != RecordFlush {
		t.Fatal("record 1 should be a flush marker")
	}
	if len(recs[2].Tuples) != 3 || recs[2].Tuples[0] != in2[0] {
		t.Fatalf("record 2 wrong: %+v", recs[2])
	}
	// Replay after a midpoint skips covered records.
	tail := collectReplay(t, w2, 2)
	if len(tail) != 1 || tail[0].Seq != 3 {
		t.Fatalf("partial replay wrong: %+v", tail)
	}
}

func TestWALTornTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendTuples(testTuples(4, 0), true)
	w.AppendTuples(testTuples(4, 10), true)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) != 1 {
		t.Fatalf("segments: %d", len(segs))
	}
	// Tear the last record: chop bytes off the end, as a crash mid-write
	// would.
	data, _ := os.ReadFile(segs[0].path)
	if err := os.WriteFile(segs[0].path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, info, err := OpenWAL(dir)
	if err != nil {
		t.Fatalf("open after tear: %v", err)
	}
	if info.LastSeq != 1 || info.TruncatedBytes == 0 {
		t.Fatalf("recovery info %+v", info)
	}
	// The log must be appendable again after truncation, and the torn
	// record gone.
	if _, err := w2.AppendTuples(testTuples(2, 50), true); err != nil {
		t.Fatal(err)
	}
	recs := collectReplay(t, w2, 0)
	if len(recs) != 2 || recs[1].Seq != 2 || len(recs[1].Tuples) != 2 {
		t.Fatalf("replay after truncate: %+v", recs)
	}
	w2.Close()
}

func TestWALCorruptMidFileRefuses(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendTuples(testTuples(4, 0), true)
	w.AppendTuples(testTuples(4, 10), true)
	w.Close()
	segs, _ := listSegments(dir)
	data, _ := os.ReadFile(segs[0].path)
	// Flip a payload byte of the FIRST record: damage not at the tail.
	data[segHeaderLen+recordHeaderLen+5] ^= 0xff
	os.WriteFile(segs[0].path, data, 0o644)

	_, _, err = OpenWAL(dir)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestWALBadMagicRefuses(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.seg"), []byte("NOPE\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenWAL(dir)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for bad magic, got %v", err)
	}
}

func TestWALRotateAndPrune(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.AppendTuples(testTuples(2, 0), true) // seq 1
	w.AppendTuples(testTuples(2, 5), true) // seq 2
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	// Rotating an empty active segment is a no-op.
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if w.Segments() != 2 {
		t.Fatalf("segments after rotate: %d", w.Segments())
	}
	w.AppendTuples(testTuples(2, 9), true) // seq 3, new segment
	if err := w.Prune(2); err != nil {
		t.Fatal(err)
	}
	if w.Segments() != 1 {
		t.Fatalf("segments after prune: %d", w.Segments())
	}
	recs := collectReplay(t, w, 2)
	if len(recs) != 1 || recs[0].Seq != 3 {
		t.Fatalf("replay after prune: %+v", recs)
	}
	// Reopen: the pruned log continues from seq 3.
	w.Close()
	w2, info, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.LastSeq != 3 {
		t.Fatalf("last seq after reopen: %d", info.LastSeq)
	}
	if seq, _ := w2.AppendTuples(testTuples(1, 0), true); seq != 4 {
		t.Fatalf("append after reopen got seq %d, want 4", seq)
	}
}

func TestWALLargeChunkSplitsAcrossRecords(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	big := testTuples(maxTuplesPerRecord+100, 0)
	seq, err := w.AppendTuples(big, true)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("want 2 records for an oversized chunk, got last seq %d", seq)
	}
	var got []transport.Tuple
	if _, err := ReadLog(dir, 0, func(rec Record) error {
		got = append(got, rec.Tuples...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(big) {
		t.Fatalf("replayed %d tuples, want %d", len(got), len(big))
	}
	for i := range got {
		if got[i] != big[i] {
			t.Fatalf("tuple %d diverged", i)
		}
	}
}

func TestCheckpointRoundTripAndAtomicity(t *testing.T) {
	dir := t.TempDir()
	if c, err := LoadCheckpoint(dir); err != nil || c != nil {
		t.Fatalf("empty dir: %v %v", c, err)
	}
	c := &Checkpoint{WALSeq: 42}
	if err := WriteCheckpoint(dir, c); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.WALSeq != 42 {
		t.Fatalf("round trip: %+v", got)
	}
	// Overwrite is atomic: a second write replaces, no temp residue.
	c.WALSeq = 43
	if err := WriteCheckpoint(dir, c); err != nil {
		t.Fatal(err)
	}
	if got, _ = LoadCheckpoint(dir); got.WALSeq != 43 {
		t.Fatalf("overwrite: %+v", got)
	}
	if _, err := os.Stat(filepath.Join(dir, CheckpointFile+".tmp")); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	// Corruption is a hard error, never a silent cold start.
	path := filepath.Join(dir, CheckpointFile)
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff
	os.WriteFile(path, data, 0o644)
	if _, err := LoadCheckpoint(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// A crash between segment creation and header fsync leaves a short or
// zero-filled final segment. That is a torn rotate, not corruption: it
// provably holds no records (appends only start after the header fsync),
// so recovery must drop it and carry on — not refuse to boot.
func TestWALTornSegmentCreationIsDropped(t *testing.T) {
	for name, husk := range map[string][]byte{
		"empty":        {},
		"magic-prefix": []byte("P2"),
		"zero-filled":  make([]byte, segHeaderLen),
	} {
		dir := t.TempDir()
		w, _, err := OpenWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		w.AppendTuples(testTuples(3, 0), true)
		w.Close()
		// Simulate the torn rotate: a husk segment after the real one.
		huskPath := filepath.Join(dir, "wal-0000000000000002.seg")
		if err := os.WriteFile(huskPath, husk, 0o644); err != nil {
			t.Fatal(err)
		}
		w2, info, err := OpenWAL(dir)
		if err != nil {
			t.Fatalf("%s: open with torn segment creation: %v", name, err)
		}
		if info.LastSeq != 1 || info.Records != 1 {
			t.Fatalf("%s: recovery info %+v", name, info)
		}
		if _, err := os.Stat(huskPath); !os.IsNotExist(err) {
			t.Fatalf("%s: husk segment not removed", name)
		}
		// The log continues exactly where the real records left off.
		if seq, err := w2.AppendTuples(testTuples(1, 9), true); err != nil || seq != 2 {
			t.Fatalf("%s: append after drop: seq %d err %v", name, seq, err)
		}
		w2.Close()
	}
}

// A garbled header — bytes that are neither a header prefix nor zeros —
// cannot come from a torn write and must refuse, even on the final
// segment (it might be a log written by a newer, incompatible binary).
func TestWALGarbledFinalHeaderRefuses(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.seg"), []byte("XYZ"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for garbled final header, got %v", err)
	}
}

// ReadLog must be strictly read-only: scanning a log with a torn tail
// reports the damage but leaves every byte on disk untouched, so p2bwal
// can never corrupt a data dir — not even a live one.
func TestReadLogIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendTuples(testTuples(4, 0), true)
	w.AppendTuples(testTuples(4, 10), true)
	w.Close()
	segs, _ := listSegments(dir)
	data, _ := os.ReadFile(segs[0].path)
	torn := data[:len(data)-7]
	if err := os.WriteFile(segs[0].path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	var seen int
	info, err := ReadLog(dir, 0, func(rec Record) error { seen++; return nil })
	if err != nil {
		t.Fatalf("ReadLog over torn tail: %v", err)
	}
	if seen != 1 || info.Records != 1 || info.TruncatedBytes == 0 || info.FirstSeq != 1 {
		t.Fatalf("ReadLog info %+v (saw %d records)", info, seen)
	}
	after, _ := os.ReadFile(segs[0].path)
	if string(after) != string(torn) {
		t.Fatal("ReadLog modified the segment file")
	}
}

// ReadLog honours the after cursor the same way recovery does.
func TestReadLogSkipsCoveredRecords(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendTuples(testTuples(2, 0), true)
	w.AppendFlush(true)
	w.AppendTuples(testTuples(2, 5), true)
	w.Close()
	var seqs []uint64
	if _, err := ReadLog(dir, 1, func(rec Record) error { seqs = append(seqs, rec.Seq); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 2 || seqs[1] != 3 {
		t.Fatalf("seqs %v", seqs)
	}
}

// A corrupted length field with more than one maximal record's worth of
// data behind it cannot be a torn tail — truncating would silently delete
// acked records — so recovery must refuse, even in the final segment.
func TestWALOversizedLengthMidFileRefuses(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendTuples(testTuples(3, 0), true)
	w.Close()
	segs, _ := listSegments(dir)
	f, err := os.OpenFile(segs[0].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A garbage "record" whose unreadable region exceeds header+maxRecordPayload.
	garbage := make([]byte, recordHeaderLen+maxRecordPayload+1024)
	for i := range garbage {
		garbage[i] = 0xAB
	}
	f.Write(garbage)
	f.Close()
	if _, _, err := OpenWAL(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for oversized unreadable region, got %v", err)
	}
	// The same garbage within one record's width IS a plausible torn tail
	// and must truncate instead.
	dir2 := t.TempDir()
	w2, _, err := OpenWAL(dir2)
	if err != nil {
		t.Fatal(err)
	}
	w2.AppendTuples(testTuples(3, 0), true)
	w2.Close()
	segs2, _ := listSegments(dir2)
	f2, _ := os.OpenFile(segs2[0].path, os.O_WRONLY|os.O_APPEND, 0o644)
	f2.Write(garbage[:1000])
	f2.Close()
	_, info, err := OpenWAL(dir2)
	if err != nil {
		t.Fatalf("small torn tail not tolerated: %v", err)
	}
	if info.TruncatedBytes != 1000 || info.Records != 1 {
		t.Fatalf("recovery info %+v", info)
	}
}

// Appends rotate to a fresh segment once the active one fills, bounding
// both segment size and the memory a scan needs.
func TestWALSizeBasedRotation(t *testing.T) {
	old := maxSegmentBytes
	maxSegmentBytes = 256
	defer func() { maxSegmentBytes = old }()

	dir := t.TempDir()
	w, _, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := w.AppendTuples(testTuples(4, i*10), true); err != nil {
			t.Fatal(err)
		}
	}
	if w.Segments() < 2 {
		t.Fatalf("no rotation after exceeding the segment bound: %d segments", w.Segments())
	}
	// Every record survives across the rotations.
	var got int
	if _, err := ReadLog(dir, 0, func(rec Record) error { got += len(rec.Tuples); return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 80 {
		t.Fatalf("replayed %d tuples, want 80", got)
	}
	w.Close()
	// And a reopen sees the same.
	w2, info, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.Records != 20 || info.LastSeq != 20 {
		t.Fatalf("reopen info %+v", info)
	}
}

// A record acked in a fresh segment is only as durable as the segment's
// directory entry, so a directory that cannot be synced is an error:
// syncDir reports it, and so does the segment creation behind a rotate.
func TestSyncDirReportsAMissingDirectory(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "gone")
	if err := syncDir(missing); err == nil {
		t.Fatal("syncDir of a missing directory succeeded")
	}
	if err := syncDir(t.TempDir()); err != nil {
		t.Fatalf("syncDir of a directory: %v", err)
	}

	dir := filepath.Join(t.TempDir(), "wal")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	w, _, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.AppendTuples(testTuples(3, 0), true); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(); err == nil {
		t.Fatal("creating a segment in a missing directory succeeded")
	}
}
