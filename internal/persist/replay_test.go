package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/transport"
)

// randomLog writes a data directory from a random history: tuple chunks
// (some spanning several replay groups), flushes, relay-delivered peer
// batches (some duplicates), cursor records, a checkpoint at a random
// point and, on small segments, rotation and pruning. With torn set the
// final segment ends in a partial record.
func randomLog(t *testing.T, dir string, r *rng.Rand, torn bool) {
	t.Helper()
	shuf, srv := newNode()
	cur := &fakeCursor{epoch: 1 + r.Uint64()%1000}
	m, err := Open(dir, shuf, srv, Options{Cursor: cur, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	ops := 100 + r.IntN(300)
	ckptAt := r.IntN(ops / 2) // replay at least half the history
	peerSeq := map[string]uint64{}
	for i := 0; i < ops; i++ {
		if i == ckptAt {
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		switch k := r.IntN(20); {
		case k < 2:
			err = m.Flush()
		case k < 4:
			origin := fmt.Sprintf("relay-%d", r.IntN(3))
			if r.IntN(4) > 0 {
				peerSeq[origin]++ // otherwise a duplicate the guard drops
			}
			_, err = m.DeliverPeer(origin, 7, peerSeq[origin], randomTuples(r, 1+r.IntN(40)))
		case k < 5:
			cur.seq += uint64(r.IntN(5))
			_, err = m.wal.AppendCursor(cur.epoch, cur.seq, false)
		default:
			n := 1 + r.IntN(300)
			if r.IntN(30) == 0 {
				n = 3000 + r.IntN(6000) // a chunk wider than a replay group
			}
			err = m.SubmitTuples(randomTuples(r, n))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if !torn {
		return
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(segs[len(segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tail := make([]byte, 1+r.IntN(recordHeaderLen-1)) // a record header cut short
	for i := range tail {
		tail[i] = byte(r.Uint64())
	}
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
}

func randomTuples(r *rng.Rand, n int) []transport.Tuple {
	out := make([]transport.Tuple, n)
	for i := range out {
		out[i] = transport.Tuple{Code: r.IntN(tK + 8), Action: r.IntN(tArms), Reward: r.Float64()}
	}
	return out
}

// copyDir copies the regular files of src into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// recovered is everything a recovery rebuilds, in comparable form.
type recovered struct {
	server   []byte
	shuffler *shuffler.State
	info     RecoveryInfo
	cursor   fakeCursor
}

func captureRecovered(t *testing.T, srv *server.Server, shuf *shuffler.Shuffler, info RecoveryInfo, cur *fakeCursor) recovered {
	t.Helper()
	state, err := server.AppendState(nil, srv.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	st, err := shuf.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return recovered{server: state, shuffler: st, info: info, cursor: *cur}
}

// serialRecover is the reference recovery: it restores dir's checkpoint
// like Open, then drives scanSegment over each segment with the records
// applied directly as the scan reaches them — one goroutine, no groups.
// It repairs nothing.
func serialRecover(t *testing.T, dir string) recovered {
	t.Helper()
	shuf, srv := newNode()
	cur := &fakeCursor{}
	var info RecoveryInfo
	ckpt, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt != nil {
		if err := srv.ImportState(ckpt.Server); err != nil {
			t.Fatal(err)
		}
		if err := shuf.Restore(ckpt.Shuffler); err != nil {
			t.Fatal(err)
		}
		info.CheckpointSeq = ckpt.WALSeq
		if ckpt.Relay != nil {
			cur.SetCursor(ckpt.Relay.Epoch, ckpt.Relay.Seq)
			info.CursorRestored = true
		}
	}
	apply := func(rec Record) error {
		if rec.Seq <= info.CheckpointSeq {
			return nil
		}
		info.ReplayedRecords++
		switch rec.Type {
		case RecordTuples:
			info.ReplayedTuples += len(rec.Tuples)
			shuf.SubmitTuples(rec.Tuples)
		case RecordFlush:
			info.ReplayedFlushes++
			shuf.Flush()
		case RecordDeliver:
			info.ReplayedPeer++
			info.ReplayedTuples += len(rec.Tuples)
			srv.DeliverPeerBatch(rec.Origin, rec.Epoch, rec.PeerSeq, rec.Tuples)
		case RecordCursor:
			cur.SetCursor(rec.Epoch, rec.PeerSeq)
			info.CursorRestored = true
		}
		return nil
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var prevSeq uint64
	for i, seg := range segs {
		if seg.start > 0 && seg.start-1 > prevSeq {
			prevSeq = seg.start - 1
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		res, err := scanSegment(seg, data, prevSeq, i == len(segs)-1, apply)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case res.drop:
			info.TruncatedBytes += res.size
		case res.truncate >= 0:
			info.TruncatedBytes += res.size - res.truncate
		}
		if res.lastSeq > 0 {
			prevSeq = res.lastSeq
		}
	}
	info.LastSeq = prevSeq
	return captureRecovered(t, srv, shuf, info, cur)
}

// TestPropertyReplayMatchesSerialScan: recovering a random data directory
// through Open — records read through a sliding window and decoded on one
// goroutine, applied in groups on another — rebuilds exactly what applying
// each record of the wholly read segments as a serial scan reaches it
// does: the same server state bytes, shuffler pending buffer, counters and
// RNG position, recovery counts and relay cursor.
func TestPropertyReplayMatchesSerialScan(t *testing.T) {
	oldSeg, oldChunk := maxSegmentBytes, scanChunk
	defer func() { maxSegmentBytes, scanChunk = oldSeg, oldChunk }()
	const trials = 16
	wrapped := 0 // trials whose replay reuses every group of the ring twice
	for trial := 0; trial < trials; trial++ {
		r := rng.New(uint64(trial) + 100)
		maxSegmentBytes = int64(4<<10) << r.IntN(8) // 4 KiB .. 512 KiB: 1 to ~100 segments
		scanChunk = 16 << r.IntN(13)                // 16 B .. 64 KiB: many records span a refill, some outgrow the window
		torn := trial%3 == 1
		dir := t.TempDir()
		randomLog(t, dir, r, torn)
		want := serialRecover(t, copyDir(t, dir))

		shuf, srv := newNode()
		cur := &fakeCursor{}
		m, err := Open(dir, shuf, srv, Options{Cursor: cur, Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := captureRecovered(t, srv, shuf, m.Recovery(), cur)
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}

		if torn != (want.info.TruncatedBytes > 0) {
			t.Fatalf("trial %d: torn %v but the reference truncates %d bytes", trial, torn, want.info.TruncatedBytes)
		}
		if got.info != want.info {
			t.Fatalf("trial %d: recovery %+v, serial scan %+v", trial, got.info, want.info)
		}
		if got.cursor.epoch != want.cursor.epoch || got.cursor.seq != want.cursor.seq || got.cursor.sets != want.cursor.sets {
			t.Fatalf("trial %d: cursor %+v, serial scan %+v", trial, got.cursor, want.cursor)
		}
		if !reflect.DeepEqual(got.shuffler, want.shuffler) {
			t.Fatalf("trial %d: shuffler %+v, serial scan %+v", trial, got.shuffler.Stats, want.shuffler.Stats)
		}
		if !bytes.Equal(got.server, want.server) {
			t.Fatalf("trial %d: server state differs from the serial scan's (%d vs %d bytes)", trial, len(got.server), len(want.server))
		}
		if want.info.ReplayedTuples > 2*replayRing*replayGroupTuples {
			wrapped++
		}
	}
	if wrapped < trials/2 {
		t.Fatalf("only %d of %d trials replayed enough tuples to reuse every group twice", wrapped, trials)
	}
}

// applyGoroutines counts goroutines running a replay's apply stage. One
// that has closed its done channel may still be returning from apply, so
// a nonzero count is read again for up to a second: a goroutine blocked
// for good is still there after that.
func applyGoroutines() int {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		n := strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*replayer).apply")
		if n == 0 || time.Now().After(deadline) {
			return n
		}
	}
}

// An apply error stops the scan and is the error returned, even when the
// log is corrupt further on: fn is never called past the failing record.
// No scan — successful, failed by fn, or failed by corruption — leaves its
// apply goroutine running.
func TestReplayApplyErrorStopsTheScan(t *testing.T) {
	old := maxSegmentBytes
	maxSegmentBytes = 16 << 10
	defer func() { maxSegmentBytes = old }()
	dir := t.TempDir()
	randomLog(t, dir, rng.New(5), false)
	var total int
	info, err := ReadLog(dir, 0, func(Record) error { total++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if total != info.Records || total < 100 {
		t.Fatalf("ReadLog returned after %d calls of fn for %d records, want at least 100", total, info.Records)
	}
	if n := applyGoroutines(); n != 0 {
		t.Fatalf("%d apply goroutines outlive a clean ReadLog", n)
	}

	damaged := copyDir(t, dir)
	segs, err := listSegments(damaged)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want a log of at least 3 segments, got %d (err %v)", len(segs), err)
	}
	victim := segs[len(segs)-2].path // not the final segment: corruption, not a torn tail
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	before := 0 // records ahead of the damage
	if _, err := ReadLog(damaged, 0, func(Record) error { before++; return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt log: err %v, want ErrCorrupt", err)
	}
	if before < 10 || before >= total {
		t.Fatalf("the damage follows %d of %d records, want a proper prefix of at least 10", before, total)
	}

	boom := errors.New("apply failed")
	for _, c := range []struct {
		dir     string
		records int
	}{{dir, total}, {damaged, before}} {
		for _, stopAt := range []int{1, 2, c.records / 2, c.records} {
			var calls int
			_, err := ReadLog(c.dir, 0, func(Record) error {
				calls++
				if calls == stopAt {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("stop at record %d of %d: err %v, want the apply error", stopAt, c.records, err)
			}
			if calls != stopAt {
				t.Fatalf("stop at record %d: fn called %d times", stopAt, calls)
			}
			if n := applyGoroutines(); n != 0 {
				t.Fatalf("%d apply goroutines outlive a ReadLog whose fn failed", n)
			}
		}
	}

	shuf, srv := newNode()
	if _, err := Open(damaged, shuf, srv, Options{Logf: func(string, ...any) {}}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open of a corrupt log: err %v, want ErrCorrupt", err)
	}
	if n := applyGoroutines(); n != 0 {
		t.Fatalf("%d apply goroutines outlive a scan refused for corruption", n)
	}
	shuf, srv = newNode()
	m, err := Open(dir, shuf, srv, Options{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	if n := applyGoroutines(); n != 0 {
		t.Fatalf("%d apply goroutines outlive Open", n)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}
