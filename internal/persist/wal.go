// Package persist gives a p2bnode durable state: a write-ahead log of every
// accepted tuple batch, periodic checkpoints of the server and shuffler
// state, and crash-safe recovery that replays the log past the last
// checkpoint.
//
// Only anonymized tuples are ever written to disk. The WAL records what the
// shuffler's buffer holds — (code, action, reward) tuples whose transport
// metadata was stripped at admission — so the log discloses nothing beyond
// what the analyzer server would eventually learn anyway, and the
// crowd-blending batch semantics survive a restart because the log
// preserves arrival order and flush positions exactly.
//
// # WAL layout
//
// The log is a directory of segment files named wal-<seq>.seg, where <seq>
// is the 16-digit hex sequence number of the first record the segment can
// hold. Each segment is:
//
//	segment := "P2BW" u8(version=1) record*
//	record  := u32le(crc) u32le(len(payload)) u64le(seq) u8(type) payload
//
// crc is CRC-32C over the 13 header bytes after the crc field plus the
// payload. Record types:
//
//	RecordTuples (1): payload is a transport batch stream — the "P2B1"
//	    magic followed by length-prefixed frames, the exact codec the HTTP
//	    batch route speaks (internal/transport/wire.go), with zero metadata.
//	RecordFlush (2): empty payload; the shuffler's pending buffer was
//	    force-flushed at this point in the stream.
//	RecordDeliver (3): a relay-forwarded peer batch delivered directly to
//	    the analyzer server, bypassing the local shuffler (the relay already
//	    shuffled it). payload is u8(len(origin)) origin u64le(epoch)
//	    u64le(peer seq) followed by a transport batch stream.
//	RecordCursor (4): the relay's durable forwarding identity — payload is
//	    u64le(epoch) u64le(seq). Written once per boot that mints a fresh
//	    epoch, so a restarted relay resumes its (epoch, seq) stream instead
//	    of re-forwarding its WAL tail under an epoch the downstream
//	    analyzer's duplicate guard cannot recognize.
//
// Sequence numbers are assigned per record, start at 1, and increase
// strictly. A checkpoint names the last sequence number it covers; recovery
// replays everything after it.
//
// # Failure handling
//
// A record that ends exactly at the end of the final segment but fails its
// CRC, or is cut short by end-of-file, is a torn tail — the write that was
// in flight when the process died — and is truncated away. A bad CRC (or
// bad segment magic) anywhere else is real corruption and refuses to load,
// with an error naming the file and offset.
package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"p2b/internal/metrics"
	"p2b/internal/transport"
)

const (
	segMagic   = "P2BW"
	walVersion = 1

	segHeaderLen    = 5  // magic + version
	recordHeaderLen = 17 // crc(4) + len(4) + seq(8) + type(1)

	// maxRecordPayload bounds one record's payload. Appends split larger
	// tuple slices across records (replay boundaries are batch-equivalent),
	// so the bound only rejects corruption at read time.
	maxRecordPayload = 4 << 20

	// maxTuplesPerRecord keeps encode buffers and replay chunks modest.
	maxTuplesPerRecord = 4096
)

// maxSegmentBytes caps the active segment: appends rotate to a fresh
// segment once it fills. Scans (recovery, p2bwal) read one whole segment
// at a time, so this bound is also the recovery memory bound. A variable
// so tests can exercise rotation without writing 64 MiB.
var maxSegmentBytes int64 = 64 << 20

// RecordType identifies what one WAL record holds. Adding a type here
// forces every replay, dump and checkpoint switch in the repo to state
// how the new record is handled — p2bvet's walswitch analyzer rejects
// any switch over a RecordType value that does not list every constant
// below.
//
//p2bvet:exhaustive
type RecordType byte

// The WAL record types; values are the on-disk type bytes and must
// never be renumbered.
const (
	// RecordTuples is an anonymized tuple batch bound for the local
	// shuffler.
	RecordTuples RecordType = 1
	// RecordFlush marks a forced flush of the shuffler's pending
	// buffer at this point in the stream.
	RecordFlush RecordType = 2
	// RecordDeliver is a relay-forwarded peer batch that bypassed the
	// local shuffler, deduplicated under its (Origin, Epoch, PeerSeq).
	RecordDeliver RecordType = 3
	// RecordCursor pins the relay's durable forwarding identity: the
	// (epoch, seq) the local forwarder held when the record was written.
	// Replay restores it before any tuple record can cut a batch, so a
	// restarted relay re-forwards its WAL tail under the SAME epoch and
	// the downstream duplicate guard absorbs the retransmits.
	RecordCursor RecordType = 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt wraps unrecoverable log damage: bad magic, a failed CRC in the
// middle of the log, or a nonsensical record header.
var ErrCorrupt = errors.New("persist: corrupt write-ahead log")

// Record is one replayed WAL entry. Type says which fields are
// meaningful: Tuples for RecordTuples, nothing extra for RecordFlush,
// Tuples plus the (Origin, Epoch, PeerSeq) peer position for
// RecordDeliver, and (Epoch, PeerSeq) — the forwarding cursor — for
// RecordCursor.
type Record struct {
	Seq    uint64
	Type   RecordType
	Tuples []transport.Tuple // valid only during the replay callback

	// Peer position of a RecordDeliver batch: it bypassed the local
	// shuffler and went straight to the analyzer server, deduplicated
	// under (Origin, Epoch, PeerSeq). A RecordCursor reuses Epoch and
	// PeerSeq for the relay's own forwarding position.
	Origin  string
	Epoch   uint64
	PeerSeq uint64
}

// WAL is an append-only, CRC-protected, segmented log of ingestion
// operations. It is safe for concurrent use, though the persist manager
// serializes appends anyway to keep log order equal to submission order.
//
// Appends are transactional: a failed write or a failed requested fsync
// rolls the segment back to its pre-append length, so a refused (500)
// record can never reappear at recovery. If even the rollback fails the
// log seals itself and every later append errors — a sealed log never
// acks what it cannot replay.
type WAL struct {
	dir string

	mu       sync.Mutex
	f        *os.File
	segPath  string // path of the active segment
	segStart uint64 // first seq the active segment can hold
	segSize  int64  // committed bytes in the active segment
	seq      uint64 // last assigned seq
	dirty    bool   // appended since last sync
	failed   bool   // sealed after an unrecoverable append failure
	segments []segmentInfo
	enc      []byte // append scratch

	// fsyncHist, when non-nil, observes every fsync's latency (set by the
	// persist manager before the log sees concurrent use).
	fsyncHist *metrics.Histogram
}

type segmentInfo struct {
	path  string
	start uint64 // first seq the segment can hold
}

// read returns the whole segment: scans hold one segment in memory at a
// time, which maxSegmentBytes bounds.
func (s segmentInfo) read() ([]byte, error) {
	data, err := os.ReadFile(s.path)
	if err != nil {
		return nil, fmt.Errorf("persist: reading segment: %w", err)
	}
	return data, nil
}

// RecoveredWAL describes what OpenWAL (or the read-only ReadLog) found on
// disk.
type RecoveredWAL struct {
	LastSeq        uint64
	FirstSeq       uint64 // first sequence the retained segments can hold (ReadLog)
	Records        int
	TruncatedBytes int64 // torn bytes at the end of the final segment
	Segments       int
}

// OpenWAL scans the segments in dir, validates them, truncates a torn tail
// in the final segment, and opens the log for appending. dir must exist.
func OpenWAL(dir string) (*WAL, RecoveredWAL, error) {
	var info RecoveredWAL
	segs, err := listSegments(dir)
	if err != nil {
		return nil, info, err
	}
	w := &WAL{dir: dir}
	var activeSize int64
	for i, seg := range segs {
		// A segment's name records the first sequence it can hold, so even
		// an empty segment (created by a rotate whose predecessors were
		// pruned) pins the log position: everything before seg.start is
		// covered by a checkpoint.
		if seg.start > 0 && seg.start-1 > w.seq {
			w.seq = seg.start - 1
		}
		data, err := seg.read()
		if err != nil {
			return nil, info, err
		}
		last := i == len(segs)-1
		scanned, err := scanSegment(seg, data, w.seq, last, nil)
		if err != nil {
			return nil, info, err
		}
		if scanned.drop {
			// Torn segment creation: the process died between creating the
			// file and fsyncing its header, so no record was ever appended.
			// Remove the husk; the next append recreates a segment.
			if err := os.Remove(seg.path); err != nil {
				return nil, info, fmt.Errorf("persist: removing torn segment %s: %w", seg.path, err)
			}
			info.TruncatedBytes += scanned.size
			continue
		}
		size := scanned.size
		if scanned.truncate >= 0 {
			// Torn tail: cut the file back to the last whole record.
			if err := os.Truncate(seg.path, scanned.truncate); err != nil {
				return nil, info, fmt.Errorf("persist: truncating torn tail of %s: %w", seg.path, err)
			}
			info.TruncatedBytes += size - scanned.truncate
			size = scanned.truncate
		}
		if scanned.lastSeq > 0 {
			w.seq = scanned.lastSeq
		}
		info.Records += scanned.records
		w.segments = append(w.segments, seg)
		activeSize = size
	}
	info.LastSeq = w.seq
	info.Segments = len(w.segments)

	if len(w.segments) == 0 {
		if err := w.newSegmentLocked(w.seq + 1); err != nil {
			return nil, info, err
		}
	} else {
		active := w.segments[len(w.segments)-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, info, fmt.Errorf("persist: opening active segment: %w", err)
		}
		w.f = f
		w.segPath = active.path
		w.segStart = active.start
		w.segSize = activeSize
	}
	return w, info, nil
}

// ReadLog scans dir's log strictly read-only: no truncation, no segment
// creation, no append handle. Every record with sequence greater than
// after is handed to fn in order; a torn tail in the final segment is
// tolerated and reported in the returned info (TruncatedBytes counts the
// torn bytes that a recovery would cut). This is what p2bwal uses, so
// inspecting a data directory can never corrupt it — not even a live one.
func ReadLog(dir string, after uint64, fn func(Record) error) (RecoveredWAL, error) {
	var info RecoveredWAL
	segs, err := listSegments(dir)
	if err != nil {
		return info, err
	}
	var prevSeq uint64
	first := uint64(1)
	kept := 0
	for i, seg := range segs {
		if seg.start > 0 && seg.start-1 > prevSeq {
			prevSeq = seg.start - 1
		}
		if kept == 0 {
			first = seg.start
		}
		data, err := seg.read()
		if err != nil {
			return info, err
		}
		scanned, err := scanSegment(seg, data, prevSeq, i == len(segs)-1, func(rec Record) error {
			if rec.Seq <= after {
				return nil
			}
			return fn(rec)
		})
		if err != nil {
			return info, err
		}
		if scanned.drop {
			info.TruncatedBytes += scanned.size
			continue
		}
		if scanned.truncate >= 0 {
			info.TruncatedBytes += scanned.size - scanned.truncate
		}
		if scanned.lastSeq > 0 {
			prevSeq = scanned.lastSeq
		}
		info.Records += scanned.records
		kept++
	}
	info.LastSeq = prevSeq
	info.Segments = kept
	info.FirstSeq = first
	return info, nil
}

// listSegments returns dir's wal-*.seg files sorted by starting sequence.
func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: reading wal dir: %w", err)
	}
	var segs []segmentInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		start, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("persist: unparseable segment name %q", name)
		}
		segs = append(segs, segmentInfo{path: filepath.Join(dir, name), start: start})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	return segs, nil
}

type scanResult struct {
	lastSeq  uint64
	records  int
	size     int64
	truncate int64 // byte offset to truncate at, -1 when the segment is whole
	drop     bool  // final segment with a torn header: holds no records, remove it
}

// scanSegment validates one segment. Records must carry strictly increasing
// sequence numbers, continuing from prevSeq. When last is true, a torn tail
// is tolerated and reported via truncate — and a header cut short is
// reported via drop: appends only ever happen after the header was fsynced,
// so a short header on the final segment means the creating rotate died
// mid-write and no record can be behind it. A *garbled* header (wrong bytes
// rather than missing bytes) cannot come from a torn write of a 5-byte
// prefix and is refused everywhere, as is an unsupported version — deleting
// it could destroy a log written by a newer binary. When apply is non-nil
// it is called for every valid record. data is the segment's content; seg
// names it in errors.
func scanSegment(seg segmentInfo, data []byte, prevSeq uint64, last bool, apply func(Record) error) (scanResult, error) {
	res := scanResult{truncate: -1, lastSeq: prevSeq, size: int64(len(data))}
	if last && len(data) <= segHeaderLen && tornHeader(data) {
		res.drop = true
		return res, nil
	}
	if len(data) < segHeaderLen {
		return res, fmt.Errorf("%w: %s: segment header cut short (%d bytes)", ErrCorrupt, seg.path, len(data))
	}
	if string(data[:4]) != segMagic {
		return res, fmt.Errorf("%w: %s: bad segment magic", ErrCorrupt, seg.path)
	}
	if data[4] != walVersion {
		return res, fmt.Errorf("persist: %s: unsupported wal version %d (want %d)", seg.path, data[4], walVersion)
	}
	off := int64(segHeaderLen)
	var (
		dec    frameDecoder
		tuples []transport.Tuple
		err    error
	)
	for off < int64(len(data)) {
		rest := data[off:]
		torn := func(reason string) (scanResult, error) {
			// A torn tail is the single append that was in flight when the
			// process died, so it can span at most one maximal record. A
			// larger unreadable region (e.g. a corrupted length field with
			// acked records behind it) is mid-log damage: truncating would
			// silently delete durable records, so refuse instead.
			if last && int64(len(rest)) <= recordHeaderLen+maxRecordPayload {
				res.truncate = off
				return res, nil
			}
			return res, fmt.Errorf("%w: %s at offset %d: %s", ErrCorrupt, seg.path, off, reason)
		}
		if len(rest) < recordHeaderLen {
			return torn("truncated record header")
		}
		crc := binary.LittleEndian.Uint32(rest[0:4])
		plen := binary.LittleEndian.Uint32(rest[4:8])
		seq := binary.LittleEndian.Uint64(rest[8:16])
		typ := rest[16]
		if plen > maxRecordPayload {
			// An absurd length is indistinguishable from a torn header at
			// the tail; anywhere else it is corruption.
			return torn(fmt.Sprintf("record payload length %d exceeds %d", plen, maxRecordPayload))
		}
		end := recordHeaderLen + int64(plen)
		if int64(len(rest)) < end {
			return torn("record cut short by end of file")
		}
		body := rest[4:end]
		if crc32.Checksum(body, crcTable) != crc {
			if last && off+end == int64(len(data)) {
				// The final record of the final segment with a bad CRC is a
				// torn in-place write; drop it.
				res.truncate = off
				return res, nil
			}
			return res, fmt.Errorf("%w: %s at offset %d: crc mismatch on record seq %d", ErrCorrupt, seg.path, off, seq)
		}
		if seq <= res.lastSeq {
			return res, fmt.Errorf("%w: %s at offset %d: sequence %d not after %d", ErrCorrupt, seg.path, off, seq, res.lastSeq)
		}
		payload := rest[recordHeaderLen:end]
		switch RecordType(typ) {
		case RecordTuples:
			if apply != nil {
				tuples, err = dec.decodeTuplesPayload(payload, tuples[:0])
				if err != nil {
					return res, fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, seg.path, off, err)
				}
				if err := apply(Record{Seq: seq, Type: RecordTuples, Tuples: tuples}); err != nil {
					return res, err
				}
			}
		case RecordFlush:
			if apply != nil {
				if err := apply(Record{Seq: seq, Type: RecordFlush}); err != nil {
					return res, err
				}
			}
		case RecordDeliver:
			if apply != nil {
				rec := Record{Seq: seq, Type: RecordDeliver}
				rec.Origin, rec.Epoch, rec.PeerSeq, tuples, err = dec.decodeDeliverPayload(payload, tuples[:0])
				if err != nil {
					return res, fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, seg.path, off, err)
				}
				rec.Tuples = tuples
				if err := apply(rec); err != nil {
					return res, err
				}
			}
		case RecordCursor:
			if apply != nil {
				if len(payload) != 16 {
					return res, fmt.Errorf("%w: %s at offset %d: cursor record payload is %d bytes, want 16", ErrCorrupt, seg.path, off, len(payload))
				}
				rec := Record{
					Seq:     seq,
					Type:    RecordCursor,
					Epoch:   binary.LittleEndian.Uint64(payload[0:8]),
					PeerSeq: binary.LittleEndian.Uint64(payload[8:16]),
				}
				if err := apply(rec); err != nil {
					return res, err
				}
			}
		default:
			return res, fmt.Errorf("%w: %s at offset %d: unknown record type %d", ErrCorrupt, seg.path, off, typ)
		}
		res.lastSeq = seq
		res.records++
		off += end
	}
	return res, nil
}

// tornHeader reports whether a header-sized-or-smaller final segment looks
// like a creation cut down mid-write: either a prefix of the real header
// (the write partially persisted) or all zeros (the filesystem committed
// the size but not the data). Anything else is genuine corruption.
func tornHeader(data []byte) bool {
	header := [segHeaderLen]byte{segMagic[0], segMagic[1], segMagic[2], segMagic[3], walVersion}
	// A complete, correct header is a valid empty segment, not a torn one.
	if len(data) == segHeaderLen && bytes.Equal(data, header[:]) {
		return false
	}
	prefix, zero := true, true
	for i, b := range data {
		if b != 0 {
			zero = false
		}
		if b != header[i] {
			prefix = false
		}
	}
	return prefix || zero
}

// frameDecoder decodes the transport batch streams inside one scan's
// records through a single FrameReader, so a replay allocates the reader's
// buffers once per segment rather than once per record.
type frameDecoder struct {
	src bytes.Reader
	fr  *transport.FrameReader
}

// decodeDeliverPayload splits a RecordDeliver payload into its peer
// position and tuple stream.
func (d *frameDecoder) decodeDeliverPayload(payload []byte, dst []transport.Tuple) (origin string, epoch, peerSeq uint64, tuples []transport.Tuple, err error) {
	if len(payload) < 1 {
		return "", 0, 0, dst, errors.New("deliver record payload empty")
	}
	olen := int(payload[0])
	if len(payload) < 1+olen+16 {
		return "", 0, 0, dst, errors.New("deliver record header cut short")
	}
	origin = string(payload[1 : 1+olen])
	epoch = binary.LittleEndian.Uint64(payload[1+olen:])
	peerSeq = binary.LittleEndian.Uint64(payload[1+olen+8:])
	tuples, err = d.decodeTuplesPayload(payload[1+olen+16:], dst)
	return origin, epoch, peerSeq, tuples, err
}

// decodeTuplesPayload decodes a record's transport batch stream into dst.
func (d *frameDecoder) decodeTuplesPayload(payload []byte, dst []transport.Tuple) ([]transport.Tuple, error) {
	d.src.Reset(payload)
	var err error
	if d.fr == nil {
		d.fr, err = transport.NewFrameReader(&d.src)
	} else {
		err = d.fr.Reset(&d.src)
	}
	if err != nil {
		return dst, err
	}
	var t transport.Tuple
	for {
		if err := d.fr.NextTuple(&t); err != nil {
			if err == io.EOF {
				return dst, nil
			}
			return dst, err
		}
		dst = append(dst, t)
	}
}

// Replay walks every record with sequence number greater than after, in
// order, and hands it to fn. The Tuples slice passed to fn is reused
// between calls. Replay reads the segment files directly and must not run
// concurrently with appends; the manager replays before serving traffic.
func (w *WAL) Replay(after uint64, fn func(Record) error) error {
	w.mu.Lock()
	segs := append([]segmentInfo(nil), w.segments...)
	w.mu.Unlock()
	prev := after
	for i, seg := range segs {
		// Skip segments that end before the replay point.
		if i+1 < len(segs) && segs[i+1].start <= after+1 {
			continue
		}
		data, err := seg.read()
		if err != nil {
			return err
		}
		_, err = scanSegment(seg, data, 0, i == len(segs)-1, func(rec Record) error {
			if rec.Seq <= after {
				return nil
			}
			if rec.Seq <= prev {
				return fmt.Errorf("%w: %s: replay sequence %d not after %d", ErrCorrupt, seg.path, rec.Seq, prev)
			}
			prev = rec.Seq
			return fn(rec)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ErrSealed is returned by appends after an unrecoverable failure: a
// write or requested fsync failed AND the rollback truncate also failed,
// so the segment tail is in an unknown state. A sealed log refuses all
// further appends — acking a record that might sit behind garbage would
// make it unrecoverable — and a restart runs the ordinary torn-tail
// recovery instead.
var ErrSealed = errors.New("persist: wal sealed after an append failure; restart to recover")

// AppendTuples logs one accepted tuple chunk and returns the sequence
// number of the last record written (large chunks may span several
// records; splitting is batch-equivalent on replay). When sync is true
// the records are fsynced before returning. On any failure — write or
// requested fsync — the segment is rolled back to its pre-call length,
// so a refused (500) record can never resurface at recovery.
func (w *WAL) AppendTuples(tuples []transport.Tuple, sync bool) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.maybeRotateLocked(); err != nil {
		return w.seq, err
	}
	err := w.transactLocked(sync, func() error {
		for len(tuples) > 0 {
			n := len(tuples)
			if n > maxTuplesPerRecord {
				n = maxTuplesPerRecord
			}
			w.enc = transport.AppendMagic(w.enc[:0])
			e := transport.Envelope{}
			for _, t := range tuples[:n] {
				e.Tuple = t
				w.enc = e.AppendFrame(w.enc)
			}
			if err := w.appendRecordLocked(RecordTuples, w.enc); err != nil {
				return err
			}
			tuples = tuples[n:]
		}
		return nil
	})
	return w.seq, err
}

// AppendDeliver logs one relay-forwarded peer batch under its (origin,
// epoch, peerSeq) position, with the same sync and rollback semantics as
// AppendTuples. Unlike tuple chunks a deliver batch is never split across
// records — the position is the analyzer's deduplication unit, and two
// records sharing it would make replay drop the second half — so a batch
// whose encoding exceeds the record payload bound is refused.
func (w *WAL) AppendDeliver(origin string, epoch, peerSeq uint64, tuples []transport.Tuple, sync bool) (uint64, error) {
	if len(origin) == 0 || len(origin) > 255 {
		return w.LastSeq(), fmt.Errorf("persist: deliver origin length %d out of range [1, 255]", len(origin))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.maybeRotateLocked(); err != nil {
		return w.seq, err
	}
	err := w.transactLocked(sync, func() error {
		w.enc = append(w.enc[:0], byte(len(origin)))
		w.enc = append(w.enc, origin...)
		w.enc = binary.LittleEndian.AppendUint64(w.enc, epoch)
		w.enc = binary.LittleEndian.AppendUint64(w.enc, peerSeq)
		w.enc = transport.AppendMagic(w.enc)
		e := transport.Envelope{}
		for _, t := range tuples {
			e.Tuple = t
			w.enc = e.AppendFrame(w.enc)
		}
		if len(w.enc) > maxRecordPayload {
			return fmt.Errorf("persist: deliver batch of %d tuples encodes to %d bytes, exceeding the %d record bound", len(tuples), len(w.enc), maxRecordPayload)
		}
		return w.appendRecordLocked(RecordDeliver, w.enc)
	})
	return w.seq, err
}

// AppendCursor logs the relay's forwarding cursor — the epoch it mints
// sequence numbers under and the last sequence assigned — with the same
// sync and rollback semantics as AppendTuples. The manager writes one
// synced cursor record the first time a data directory meets a
// forwarder, before any traffic, so the epoch survives a kill -9 that
// arrives before the first checkpoint.
func (w *WAL) AppendCursor(epoch, seq uint64, sync bool) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.maybeRotateLocked(); err != nil {
		return w.seq, err
	}
	err := w.transactLocked(sync, func() error {
		w.enc = binary.LittleEndian.AppendUint64(w.enc[:0], epoch)
		w.enc = binary.LittleEndian.AppendUint64(w.enc, seq)
		return w.appendRecordLocked(RecordCursor, w.enc)
	})
	return w.seq, err
}

// AppendFlush logs a flush marker, with the same sync and rollback
// semantics as AppendTuples.
func (w *WAL) AppendFlush(sync bool) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.maybeRotateLocked(); err != nil {
		return w.seq, err
	}
	err := w.transactLocked(sync, func() error {
		return w.appendRecordLocked(RecordFlush, nil)
	})
	return w.seq, err
}

// maybeRotateLocked starts a fresh segment before an append once the
// active one is full, bounding segment size (and with it the memory a
// scan needs). Rotation happens between transactions, never inside one,
// so a rollback always stays within a single file.
func (w *WAL) maybeRotateLocked() error {
	if w.failed || w.f == nil || w.segSize < maxSegmentBytes {
		return nil
	}
	return w.rotateLocked()
}

// transactLocked runs body (one or more record appends) and, when sync is
// set, fsyncs the result. Any failure rolls the segment back to its
// pre-call length and sequence, so partially written or not-durable
// records never sit in front of later successful appends; if even the
// rollback fails, the log seals itself.
func (w *WAL) transactLocked(sync bool, body func() error) error {
	if w.failed {
		return ErrSealed
	}
	if w.f == nil {
		return errors.New("persist: wal is closed")
	}
	startSize, startSeq := w.segSize, w.seq
	err := body()
	if err == nil && sync {
		err = w.syncLocked()
	}
	if err == nil {
		return nil
	}
	if terr := w.truncateSegLocked(startSize); terr != nil {
		w.failed = true
		return fmt.Errorf("%w (append failed: %v; rollback failed: %v)", ErrSealed, err, terr)
	}
	w.seq = startSeq
	w.segSize = startSize
	w.dirty = true // the truncation itself still needs a sync
	return err
}

// truncateSegLocked cuts the active segment back to size through the
// fault seam — the rollback write whose failure seals the log.
func (w *WAL) truncateSegLocked(size int64) error {
	if h := fsHooks.Load(); h != nil && h.BeforeTruncate != nil {
		if err := h.BeforeTruncate(w.segPath); err != nil {
			return err
		}
	}
	return os.Truncate(w.segPath, size)
}

func (w *WAL) appendRecordLocked(typ RecordType, payload []byte) error {
	seq := w.seq + 1
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	hdr[16] = byte(typ)
	crc := crc32.Checksum(hdr[4:], crcTable)
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(hdr[0:4], crc)
	if err := w.writeSegLocked(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if err := w.writeSegLocked(payload); err != nil {
			return err
		}
	}
	w.seq = seq
	w.segSize += int64(recordHeaderLen + len(payload))
	w.dirty = true
	return nil
}

// writeSegLocked writes b to the active segment through the fault seam
// (FSHooks). A hook-shortened write persists its prefix before the error
// is reported — the torn-frame shape a real partial write leaves behind —
// and the enclosing transaction's rollback (or, if that too fails, the
// next boot's torn-tail truncation) is what cleans it up.
func (w *WAL) writeSegLocked(b []byte) error {
	if h := fsHooks.Load(); h != nil && h.BeforeWrite != nil {
		keep, herr := h.BeforeWrite(w.segPath, b)
		if herr != nil {
			if keep > len(b) {
				keep = len(b)
			}
			if keep > 0 {
				// Best effort: the operation fails either way, the torn
				// prefix just has to exist for recovery to contend with.
				_, _ = w.f.Write(b[:keep])
				w.dirty = true
			}
			return fmt.Errorf("persist: wal append: %w", herr)
		}
	}
	if _, err := w.f.Write(b); err != nil {
		return fmt.Errorf("persist: wal append: %w", err)
	}
	return nil
}

// Sync flushes appended records to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

// walClock is the package's telemetry clock seam. Latency histograms
// (fsync, append, checkpoint) are the only wall-clock consumers in this
// package — nothing written to the log may ever derive from it, and
// tests substitute a fake to keep recovery runs reproducible.
var walClock = time.Now

func (w *WAL) syncLocked() error {
	if !w.dirty || w.f == nil {
		return nil
	}
	var start time.Time
	if w.fsyncHist != nil {
		start = walClock()
	}
	if h := fsHooks.Load(); h != nil && h.BeforeSync != nil {
		if err := h.BeforeSync(w.segPath); err != nil {
			return fmt.Errorf("persist: wal sync: %w", err)
		}
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("persist: wal sync: %w", err)
	}
	if w.fsyncHist != nil {
		w.fsyncHist.Observe(walClock().Sub(start).Seconds())
	}
	w.dirty = false
	return nil
}

// LastSeq returns the sequence number of the last appended record.
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Rotate closes the active segment and starts a new one, so that a
// subsequent Prune can delete whole old segments. Rotating an empty active
// segment is a no-op.
func (w *WAL) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rotateLocked()
}

func (w *WAL) rotateLocked() error {
	if w.segStart == w.seq+1 {
		return nil // active segment has no records yet
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("persist: closing segment: %w", err)
	}
	w.f = nil
	return w.newSegmentLocked(w.seq + 1)
}

func (w *WAL) newSegmentLocked(start uint64) error {
	path := filepath.Join(w.dir, fmt.Sprintf("wal-%016x.seg", start))
	// O_APPEND matters beyond idiom: a rolled-back append truncates the
	// segment, and a plain fd would keep its old offset and leave a
	// zero-filled hole on the next write. Append mode writes at EOF always.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: creating segment: %w", err)
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:], segMagic)
	hdr[4] = walVersion
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("persist: writing segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: syncing segment header: %w", err)
	}
	w.f = f
	w.segPath = path
	w.segStart = start
	w.segSize = segHeaderLen
	w.segments = append(w.segments, segmentInfo{path: path, start: start})
	w.dirty = false
	return syncDir(w.dir)
}

// Prune deletes segments whose records are all covered by a checkpoint at
// sequence upTo. The active segment is never deleted. Call Rotate first so
// the active segment holds no covered records.
func (w *WAL) Prune(upTo uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	kept := w.segments[:0]
	for i, seg := range w.segments {
		// A segment's records are all < the next segment's start. The last
		// (active) segment is always kept.
		if i+1 < len(w.segments) && w.segments[i+1].start <= upTo+1 {
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("persist: pruning segment: %w", err)
			}
			continue
		}
		kept = append(kept, seg)
	}
	w.segments = kept
	return syncDir(w.dir)
}

// Segments returns how many segment files the log currently spans.
func (w *WAL) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segments)
}

// FirstSeq returns the first sequence number the retained log can still
// replay. 1 means the full history is present; anything larger means
// earlier records were pruned after a checkpoint covered them.
func (w *WAL) FirstSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.segments) == 0 {
		return 1
	}
	return w.segments[0].start
}

// Close syncs and closes the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// syncDir fsyncs a directory so entry creation/removal is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil // best effort: some platforms refuse O_RDONLY on dirs
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
