package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"

	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/transport"
)

// Checkpoint file layout:
//
//	file     := "P2BC" u8(version) u32le(crc) u32le(len(body)) body
//
// crc is CRC-32C over body. Version 2, the only version written, has a
// binary body built from the codecs the peer wire and the WAL already
// speak:
//
//	body     := uvarint(wal_seq) u8(parts) cursor? server? shuffler?
//	cursor   := uvarint(epoch) uvarint(seq)                  (parts bit 0)
//	server   := state uvarint(n) guard*n                     (parts bit 1)
//	guard    := u8(len(origin)) origin u64le(epoch) u64le(seq)
//	shuffler := uvarint(received) uvarint(forwarded) uvarint(dropped)
//	            uvarint(batches) uvarint(len(rng)) rng
//	            uvarint(len(pending)) pending                (parts bit 2)
//
// state is the P2BS state body (server.AppendState), so the disk and the
// peer wire share one state codec and the cells round-trip bit for bit.
// guard is one relay duplicate-guard position, in the WAL's deliver-record
// form; origins are 1-255 bytes and strictly increasing. rng is
// rng.Rand.MarshalBinary's output, and pending is the shuffler's buffer as
// one transport.AppendTuples stream. The decoder follows transport.Reader's
// rules — shortest-form uvarints, no trailing bytes, no make sized before
// its bytes are known to be there — so every accepted body has exactly one
// encoding.
//
// Version 1, whose body is the JSON encoding of Checkpoint, is still read:
// it is the upgrade path, and a node rewrites its checkpoint as version 2
// at its next checkpoint or shutdown.
const (
	ckptMagic       = "P2BC"
	ckptVersion     = 2
	ckptVersionJSON = 1
	ckptHeaderLen   = 13 // magic(4) + version(1) + crc(4) + len(4)

	// CheckpointFile is the checkpoint's name inside the data directory.
	// Writes go to CheckpointFile + ".tmp" first and rename into place, so
	// a crash mid-write leaves the previous checkpoint intact.
	CheckpointFile = "checkpoint.ckpt"
)

// The parts byte says which optional sections follow the WAL position.
const (
	partRelay = 1 << iota
	partServer
	partShuffler
)

// Checkpoint is a consistent cut of the node's durable state: everything
// the server has absorbed, everything the shuffler still buffers, and the
// WAL position the cut corresponds to. Replaying WAL records with sequence
// numbers greater than WALSeq on top of a restored checkpoint reproduces
// the pre-crash process exactly.
type Checkpoint struct {
	WALSeq   uint64                 `json:"wal_seq"`
	Server   *server.PersistedState `json:"server"`
	Shuffler *shuffler.State        `json:"shuffler"`
	// Relay is the forwarding cursor of a relay node at the cut: the
	// epoch it stamps batches with and the last sequence it assigned.
	// Nil on nodes that forward nothing (combined, analyzer). The field
	// is what lets a restarted relay skip re-deriving pre-checkpoint
	// sequence numbers — those batches' WAL records are pruned, so only
	// the checkpoint remembers how many were cut.
	Relay *RelayCursor `json:"relay,omitempty"`
}

// RelayCursor is a relay's durable forwarding position: sequence numbers
// Seq and below have been assigned under Epoch.
type RelayCursor struct {
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
}

// encodeCheckpoint returns the complete version-2 checkpoint file for c.
func encodeCheckpoint(c *Checkpoint) ([]byte, error) {
	// Size the file up front: the manager encodes with ingestion quiesced,
	// and the cells alone are 16·k·arms bytes.
	size := ckptHeaderLen + 64
	if ps := c.Server; ps != nil {
		size += 8*(len(ps.CellCount)+len(ps.CellSum)+ps.Arms*(ps.D*ps.D+ps.D)) + 16*ps.Arms + 273*len(ps.Relays)
	}
	if st := c.Shuffler; st != nil {
		size += len(st.RNG) + 32*len(st.Pending) // a frame of a tuple is at most 30 bytes
	}
	buf := make([]byte, ckptHeaderLen, size)
	copy(buf, ckptMagic)
	buf[4] = ckptVersion
	buf = binary.AppendUvarint(buf, c.WALSeq)
	var parts byte
	if c.Relay != nil {
		parts |= partRelay
	}
	if c.Server != nil {
		parts |= partServer
	}
	if c.Shuffler != nil {
		parts |= partShuffler
	}
	buf = append(buf, parts)
	if c.Relay != nil {
		buf = binary.AppendUvarint(buf, c.Relay.Epoch)
		buf = binary.AppendUvarint(buf, c.Relay.Seq)
	}
	var err error
	if c.Server != nil {
		if buf, err = appendServer(buf, c.Server); err != nil {
			return nil, err
		}
	}
	if c.Shuffler != nil {
		if buf, err = appendShuffler(buf, c.Shuffler); err != nil {
			return nil, err
		}
	}
	body := buf[ckptHeaderLen:]
	binary.LittleEndian.PutUint32(buf[5:9], crc32.Checksum(body, crcTable))
	binary.LittleEndian.PutUint32(buf[9:13], uint32(len(body)))
	return buf, nil
}

func appendServer(dst []byte, ps *server.PersistedState) ([]byte, error) {
	dst, err := server.AppendState(dst, ps)
	if err != nil {
		return dst, err
	}
	origins := slices.Sorted(maps.Keys(ps.Relays))
	dst = binary.AppendUvarint(dst, uint64(len(origins)))
	for _, origin := range origins {
		if len(origin) == 0 || len(origin) > 255 {
			return dst, fmt.Errorf("relay origin length %d out of range [1, 255]", len(origin))
		}
		pos := ps.Relays[origin]
		dst = append(dst, byte(len(origin)))
		dst = append(dst, origin...)
		dst = binary.LittleEndian.AppendUint64(dst, pos.Epoch)
		dst = binary.LittleEndian.AppendUint64(dst, pos.Seq)
	}
	return dst, nil
}

func appendShuffler(dst []byte, st *shuffler.State) ([]byte, error) {
	for _, v := range []int64{st.Stats.Received, st.Stats.Forwarded, st.Stats.Dropped, st.Stats.Batches} {
		if v < 0 {
			return dst, fmt.Errorf("negative shuffler counter %d", v)
		}
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	for _, t := range st.Pending {
		if !finite(t.Reward) {
			return dst, fmt.Errorf("pending tuple has non-finite reward %v", t.Reward)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(st.RNG)))
	dst = append(dst, st.RNG...)
	// The stream's length prefix goes in front once the stream is written.
	at := len(dst)
	dst = transport.AppendTuples(dst, st.Pending)
	var n [binary.MaxVarintLen64]byte
	return slices.Insert(dst, at, binary.AppendUvarint(n[:0], uint64(len(dst)-at))...), nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// WriteCheckpoint atomically replaces dir's checkpoint: the new state is
// written to a temporary file, synced, and renamed over the old one, so
// every crash leaves either the previous or the new checkpoint — never a
// torn hybrid.
func WriteCheckpoint(dir string, c *Checkpoint) error {
	buf, err := encodeCheckpoint(c)
	if err != nil {
		return fmt.Errorf("persist: encoding checkpoint: %w", err)
	}
	tmp := filepath.Join(dir, CheckpointFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: creating checkpoint temp: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, CheckpointFile)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: publishing checkpoint: %w", err)
	}
	return syncDir(dir)
}

// LoadCheckpoint reads dir's checkpoint. It returns (nil, nil) when no
// checkpoint exists; a present-but-damaged checkpoint is a hard error, not
// a silent cold start — silently discarding state would replay tuples the
// server already absorbed.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	path := filepath.Join(dir, CheckpointFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: reading checkpoint: %w", err)
	}
	c, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// decodeCheckpoint decodes a complete checkpoint file of either version.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < ckptHeaderLen || string(data[:4]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad checkpoint magic", ErrCorrupt)
	}
	version := data[4]
	if version != ckptVersion && version != ckptVersionJSON {
		return nil, fmt.Errorf("persist: unsupported checkpoint version %d (want %d or %d)", version, ckptVersionJSON, ckptVersion)
	}
	crc := binary.LittleEndian.Uint32(data[5:9])
	n := binary.LittleEndian.Uint32(data[9:13])
	body := data[ckptHeaderLen:]
	if uint64(len(body)) != uint64(n) {
		return nil, fmt.Errorf("%w: checkpoint body is %d bytes, header says %d", ErrCorrupt, len(body), n)
	}
	if crc32.Checksum(body, crcTable) != crc {
		return nil, fmt.Errorf("%w: checkpoint crc mismatch", ErrCorrupt)
	}
	var c *Checkpoint
	var err error
	if version == ckptVersionJSON {
		c = new(Checkpoint)
		err = json.Unmarshal(body, c)
	} else {
		c, err = decodeBody(body)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: decoding checkpoint: %v", ErrCorrupt, err)
	}
	return c, nil
}

// decodeBody decodes a version-2 body.
func decodeBody(body []byte) (*Checkpoint, error) {
	r := transport.NewReader(body, "body")
	c := &Checkpoint{}
	var err error
	if c.WALSeq, err = r.Uvarint("wal seq"); err != nil {
		return nil, err
	}
	parts, err := r.Byte("parts")
	if err != nil {
		return nil, err
	}
	if parts&^(partRelay|partServer|partShuffler) != 0 {
		return nil, fmt.Errorf("unknown parts %#x", parts)
	}
	if parts&partRelay != 0 {
		c.Relay = &RelayCursor{}
		if c.Relay.Epoch, err = r.Uvarint("relay epoch"); err != nil {
			return nil, err
		}
		if c.Relay.Seq, err = r.Uvarint("relay seq"); err != nil {
			return nil, err
		}
	}
	if parts&partServer != 0 {
		if c.Server, err = server.ReadState(&r); err != nil {
			return nil, err
		}
		if c.Server.Relays, err = readRelayGuard(&r); err != nil {
			return nil, err
		}
	}
	if parts&partShuffler != 0 {
		if c.Shuffler, err = readShuffler(&r); err != nil {
			return nil, err
		}
	}
	return c, r.Done()
}

// guardEntryMin is the smallest encoded relay-guard entry: a one-byte
// origin with its length and two u64s. Fixed-width positions, as in the
// WAL's deliver records, make every entry cost at least 18 bytes, so the
// map a decoded count sizes stays within a few bytes per input byte.
const guardEntryMin = 1 + 1 + 16

func readRelayGuard(r *transport.Reader) (map[string]server.PeerSeq, error) {
	n, err := r.Uvarint("relay guard size")
	if err != nil || n == 0 {
		return nil, err
	}
	if err := r.Need("relay guard", guardEntryMin, n); err != nil {
		return nil, err
	}
	guard := make(map[string]server.PeerSeq, n)
	prev := ""
	for i := uint64(0); i < n; i++ {
		olen, err := r.Byte("relay origin length")
		if err != nil {
			return nil, err
		}
		if olen == 0 {
			return nil, errors.New("empty relay origin")
		}
		b, err := r.Bytes(uint64(olen), "relay origin")
		if err != nil {
			return nil, err
		}
		if string(b) <= prev {
			return nil, fmt.Errorf("relay origin %q does not follow %q", b, prev)
		}
		pos, err := r.Bytes(16, "relay position")
		if err != nil {
			return nil, err
		}
		prev = string(b)
		guard[prev] = server.PeerSeq{
			Epoch: binary.LittleEndian.Uint64(pos[0:8]),
			Seq:   binary.LittleEndian.Uint64(pos[8:16]),
		}
	}
	return guard, nil
}

func readShuffler(r *transport.Reader) (*shuffler.State, error) {
	st := &shuffler.State{}
	var err error
	for _, v := range []*int64{&st.Stats.Received, &st.Stats.Forwarded, &st.Stats.Dropped, &st.Stats.Batches} {
		if *v, err = r.Int64("shuffler counter"); err != nil {
			return nil, err
		}
	}
	n, err := r.Uvarint("rng length")
	if err != nil {
		return nil, err
	}
	b, err := r.Bytes(n, "rng")
	if err != nil {
		return nil, err
	}
	if len(b) > 0 {
		st.RNG = bytes.Clone(b)
	}
	if n, err = r.Uvarint("pending length"); err != nil {
		return nil, err
	}
	stream, err := r.Bytes(n, "pending")
	if err != nil {
		return nil, err
	}
	if st.Pending, err = transport.DecodeTuples(nil, stream); err != nil {
		return nil, fmt.Errorf("pending tuples: %w", err)
	}
	for _, t := range st.Pending {
		if !finite(t.Reward) {
			return nil, fmt.Errorf("pending tuple has non-finite reward %v", t.Reward)
		}
	}
	// The batch decoder tolerates metadata and long varints; a pending
	// stream must be exactly what AppendTuples writes.
	if !bytes.Equal(transport.AppendTuples(nil, st.Pending), stream) {
		return nil, errors.New("pending tuples are not in canonical form")
	}
	return st, nil
}
