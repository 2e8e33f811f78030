package persist

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"runtime"
	"sort"
	"testing"

	"p2b/internal/transport"
)

// allocated reports the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A scan decodes its records through one reused frame reader. With a
// reader per record, reading 2,000 records of 64 tuples allocated a fresh
// 32 KiB read buffer for each: ~34 KB per record for ~800 bytes of log.
func TestReadLogAllocatesAtMostTwiceTheLogPerRecord(t *testing.T) {
	const records = 2000
	dir := t.TempDir()
	w, _, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if _, err := w.AppendTuples(testTuples(64, 0), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, err %v", segs, err)
	}
	fi, err := os.Stat(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	grew := allocated(func() {
		_, err = ReadLog(dir, 0, func(Record) error { seen++; return nil })
	})
	if err != nil || seen != records {
		t.Fatalf("ReadLog replayed %d of %d records, err %v", seen, records, err)
	}
	// The scan holds the segment in memory once; decoding a record may
	// cost at most that record's size again.
	if perRecord, limit := grew/records, 2*uint64(fi.Size())/records; perRecord > limit {
		t.Fatalf("ReadLog allocated %d bytes per record, limit %d", perRecord, limit)
	}
}

// scanSegment scans one whole in-memory segment the way recovery scans a
// file, calling apply (when non-nil) on every valid record as the scan
// reaches it: the serial form of the scanner, which the fuzzer and the
// replay property test's reference drive.
func scanSegment(seg segmentInfo, data []byte, prevSeq uint64, last bool, apply func(Record) error) (scanResult, error) {
	whole := &segWindow{buf: data, size: int64(len(data))}
	if apply == nil {
		return scanRecords(seg, whole, prevSeq, last, nil, nil)
	}
	var tuples []transport.Tuple
	return scanRecords(seg, whole, prevSeq, last, &tuples, func(rec Record, _ int) error {
		tuples = tuples[:0]
		return apply(rec)
	})
}

// fuzzSeg names the segment under test in scanner errors.
var fuzzSeg = segmentInfo{path: "fuzz.seg"}

func discard(Record) error { return nil }

// FuzzScanSegment checks the scanner that recovery, p2bwal and replay read
// segments through. On any bytes it must not panic and must allocate at
// most 64 KiB + 8·len(input). A valid segment cut short inside a record
// must scan as a torn tail, truncated at the last whole record, when it is
// the final segment, and as ErrCorrupt anywhere else. Every input is also
// scanned with its record CRCs recomputed, so mutated payloads reach the
// tuple, deliver and cursor decoders instead of stopping at the checksum.
func FuzzScanSegment(f *testing.F) {
	f.Add(validSegment(f), uint(0))
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		sealed := resealed(data)
		for _, in := range [][]byte{data, sealed} {
			for _, last := range []bool{false, true} {
				grew := allocated(func() { _, _ = scanSegment(fuzzSeg, in, 0, last, discard) })
				if limit := 64<<10 + 8*uint64(len(in)); grew > limit {
					t.Fatalf("scanning %d bytes (last %v) allocated %d, limit %d", len(in), last, grew, limit)
				}
			}
		}

		if whole, err := scanSegment(fuzzSeg, sealed, 0, false, discard); err != nil || whole.records == 0 {
			return
		}
		ends := recordEnds(sealed)
		at := segHeaderLen + 1 + int(cut%uint(len(sealed)-segHeaderLen-1))
		i := sort.SearchInts(ends, at)
		if ends[i] == at {
			return // a record boundary: a shorter whole segment
		}
		torn, err := scanSegment(fuzzSeg, sealed[:at], 0, true, discard)
		if err != nil || torn.truncate != int64(ends[i-1]) || torn.records != i-1 {
			t.Fatalf("final segment cut at %d: truncate %d after %d records (err %v), want truncate %d after %d",
				at, torn.truncate, torn.records, err, ends[i-1], i-1)
		}
		if _, err := scanSegment(fuzzSeg, sealed[:at], 0, false, discard); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("earlier segment cut at %d: err %v, want ErrCorrupt", at, err)
		}
	})
}

// validSegment returns a segment holding one record of every type, as the
// log writes them.
func validSegment(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	w, _, err := OpenWAL(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.AppendTuples(testTuples(3, 0), false); err != nil {
		tb.Fatal(err)
	}
	if _, err := w.AppendFlush(false); err != nil {
		tb.Fatal(err)
	}
	if _, err := w.AppendDeliver("relay-1", 7, 2, testTuples(2, 5), false); err != nil {
		tb.Fatal(err)
	}
	if _, err := w.AppendCursor(7, 2, false); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		tb.Fatalf("segments %v, err %v", segs, err)
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// recordEnds walks seg's record headers: the offset where the segment
// header ends, then the offset where each whole record ends.
func recordEnds(seg []byte) []int {
	ends := []int{segHeaderLen}
	for off := segHeaderLen; off+recordHeaderLen <= len(seg); {
		end := off + recordHeaderLen + int(binary.LittleEndian.Uint32(seg[off+4:]))
		if end > len(seg) {
			break
		}
		ends = append(ends, end)
		off = end
	}
	return ends
}

// resealed returns a copy of seg with every whole record's CRC recomputed.
func resealed(seg []byte) []byte {
	out := append([]byte(nil), seg...)
	ends := recordEnds(out)
	for i := 1; i < len(ends); i++ {
		off := ends[i-1]
		binary.LittleEndian.PutUint32(out[off:], crc32.Checksum(out[off+4:ends[i]], crcTable))
	}
	return out
}
