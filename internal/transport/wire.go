// Binary batch wire format. The distributed pipeline ships reports from
// agents to the shuffler in batches; this file defines the compact
// length-prefixed encoding those batches travel in, plus the streaming
// reader the server side uses to consume them without per-envelope
// allocation.
//
// Layout (all integers little-endian where fixed-width, varint otherwise):
//
//	stream := magic frame*
//	magic  := "P2B1"
//	frame  := uvarint(len(body)) body
//	body   := uvarint(len(meta)) meta tuple
//	meta   := uvarint(len(deviceID)) deviceID uvarint(len(addr)) addr varint(sentAt)
//	tuple  := varint(code) varint(action) float64le(reward)
//
// A zero-value Metadata is encoded as a zero-length meta section. Because
// the metadata block carries its own length prefix, a consumer that only
// wants the anonymized tuple (the shuffler ingestion path) can skip the
// identifying bytes without ever materializing them — see
// FrameReader.NextTuple.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Content types negotiated on the batch report route (POST
// /shuffler/reports). The binary encoding is the fast path; NDJSON (one
// JSON-encoded Envelope per line) is the debuggable fallback.
const (
	ContentTypeBinary = "application/x-p2b-batch"
	ContentTypeNDJSON = "application/x-ndjson"
)

// Magic is the 4-byte header that opens every binary batch stream. It lets
// the server reject bodies that merely claim the binary content type.
const Magic = "P2B1"

// MaxFrameBytes bounds one frame body. A frame is one envelope — two short
// metadata strings and three numbers — so 4 KiB is generous; anything
// larger is corruption or an attack on the server's frame buffer.
const MaxFrameBytes = 4096

// Errors returned by the batch decoder.
var (
	ErrBadMagic      = errors.New("transport: batch stream does not start with magic \"P2B1\"")
	ErrFrameTooLarge = fmt.Errorf("transport: frame exceeds %d bytes", MaxFrameBytes)
)

// AppendMagic appends the stream header to dst.
func AppendMagic(dst []byte) []byte { return append(dst, Magic...) }

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// varintLen returns the encoded size of v as a zig-zag varint.
func varintLen(v int64) int {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return uvarintLen(uv)
}

// metaSize returns the encoded size of e's metadata section (0 for zero
// metadata).
func (e *Envelope) metaSize() int {
	if e.Meta.IsZero() {
		return 0
	}
	return uvarintLen(uint64(len(e.Meta.DeviceID))) + len(e.Meta.DeviceID) +
		uvarintLen(uint64(len(e.Meta.Addr))) + len(e.Meta.Addr) +
		varintLen(e.Meta.SentAt)
}

// FrameBodySize returns the encoded size of e's frame body, excluding the
// frame's own length prefix — the quantity MaxFrameBytes bounds. Encoders
// must reject envelopes whose body exceeds MaxFrameBytes before shipping:
// the decoder refuses such frames, which would poison the whole batch.
func (e *Envelope) FrameBodySize() int {
	metaLen := e.metaSize()
	return uvarintLen(uint64(metaLen)) + metaLen +
		varintLen(int64(e.Tuple.Code)) + varintLen(int64(e.Tuple.Action)) + 8
}

// AppendFrame appends one length-prefixed frame encoding e to dst and
// returns the extended slice. It never allocates beyond growing dst, so a
// client batching thousands of reports reuses one buffer.
func (e *Envelope) AppendFrame(dst []byte) []byte {
	metaLen := e.metaSize()
	bodyLen := e.FrameBodySize()
	dst = binary.AppendUvarint(dst, uint64(bodyLen))
	dst = binary.AppendUvarint(dst, uint64(metaLen))
	if metaLen > 0 {
		dst = binary.AppendUvarint(dst, uint64(len(e.Meta.DeviceID)))
		dst = append(dst, e.Meta.DeviceID...)
		dst = binary.AppendUvarint(dst, uint64(len(e.Meta.Addr)))
		dst = append(dst, e.Meta.Addr...)
		dst = binary.AppendVarint(dst, e.Meta.SentAt)
	}
	dst = binary.AppendVarint(dst, int64(e.Tuple.Code))
	dst = binary.AppendVarint(dst, int64(e.Tuple.Action))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Tuple.Reward))
	return dst
}

// FrameReader is a streaming decoder for a binary batch stream. It reads
// one frame at a time into an internal buffer that is reused across
// frames, so decoding N envelopes costs O(1) allocations, not O(N).
// It is not safe for concurrent use.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte
	n   int // frames decoded so far, for error messages
}

// NewFrameReader wraps r and validates the stream magic. A stream whose
// first four bytes are not Magic fails immediately with ErrBadMagic.
func NewFrameReader(r io.Reader) (*FrameReader, error) {
	fr := &FrameReader{r: bufio.NewReaderSize(r, 32<<10)}
	if err := fr.readMagic(); err != nil {
		return nil, err
	}
	return fr, nil
}

// Reset switches fr to the stream r and validates its magic like
// NewFrameReader, keeping the read and frame buffers: a caller decoding
// many short streams (WAL replay, one per record) allocates them once.
func (fr *FrameReader) Reset(r io.Reader) error {
	fr.r.Reset(r)
	fr.n = 0
	return fr.readMagic()
}

func (fr *FrameReader) readMagic() error {
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(fr.r, magic[:]); err != nil {
		return fmt.Errorf("transport: reading batch magic: %w", err)
	}
	if string(magic[:]) != Magic {
		return ErrBadMagic
	}
	return nil
}

// readFrame reads the next frame body into the reused buffer. It returns
// io.EOF exactly at a clean end of stream; a stream truncated mid-frame
// yields a wrapped io.ErrUnexpectedEOF instead.
func (fr *FrameReader) readFrame() ([]byte, error) {
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("transport: frame %d length prefix: %w", fr.n, err)
	}
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("transport: frame %d: %w", fr.n, ErrFrameTooLarge)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	body := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("transport: frame %d body (%d bytes): %w", fr.n, n, err)
	}
	fr.n++
	return body, nil
}

// frameErr annotates a parse failure with the frame index (readFrame has
// already advanced fr.n past this frame).
func (fr *FrameReader) frameErr(what string) error {
	return fmt.Errorf("transport: frame %d: malformed %s", fr.n-1, what)
}

func (fr *FrameReader) uvarint(body []byte, at int, what string) (uint64, int, error) {
	v, w := binary.Uvarint(body[at:])
	if w <= 0 {
		return 0, 0, fr.frameErr(what)
	}
	return v, at + w, nil
}

func (fr *FrameReader) varint(body []byte, at int, what string) (int64, int, error) {
	v, w := binary.Varint(body[at:])
	if w <= 0 {
		return 0, 0, fr.frameErr(what)
	}
	return v, at + w, nil
}

// Next decodes the next envelope, including its metadata, into *e. It
// returns io.EOF at a clean end of stream. Metadata strings are the only
// per-envelope allocations, and only when present.
func (fr *FrameReader) Next(e *Envelope) error {
	body, err := fr.readFrame()
	if err != nil {
		return err
	}
	metaLen, at, err := fr.uvarint(body, 0, "metadata length")
	if err != nil {
		return err
	}
	if metaLen > uint64(len(body)-at) {
		return fr.frameErr("metadata length")
	}
	*e = Envelope{}
	if metaLen > 0 {
		meta := body[at : at+int(metaLen)]
		m := 0
		devLen, m, err := fr.uvarint(meta, m, "device id length")
		if err != nil {
			return err
		}
		if devLen > uint64(len(meta)-m) {
			return fr.frameErr("device id length")
		}
		e.Meta.DeviceID = string(meta[m : m+int(devLen)])
		m += int(devLen)
		addrLen, m, err := fr.uvarint(meta, m, "addr length")
		if err != nil {
			return err
		}
		if addrLen > uint64(len(meta)-m) {
			return fr.frameErr("addr length")
		}
		e.Meta.Addr = string(meta[m : m+int(addrLen)])
		m += int(addrLen)
		sentAt, m, err := fr.varint(meta, m, "sent-at timestamp")
		if err != nil {
			return err
		}
		if m != len(meta) {
			return fr.frameErr("metadata (trailing bytes)")
		}
		e.Meta.SentAt = sentAt
	}
	return fr.tuple(body, at+int(metaLen), &e.Tuple)
}

// NextTuple decodes only the tuple of the next envelope, skipping the
// metadata bytes without materializing them. This is the server ingestion
// fast path: identity never leaves the frame buffer, and no per-envelope
// allocation happens at all. It returns io.EOF at a clean end of stream.
func (fr *FrameReader) NextTuple(t *Tuple) error {
	body, err := fr.readFrame()
	if err != nil {
		return err
	}
	metaLen, at, err := fr.uvarint(body, 0, "metadata length")
	if err != nil {
		return err
	}
	if metaLen > uint64(len(body)-at) {
		return fr.frameErr("metadata length")
	}
	return fr.tuple(body, at+int(metaLen), t)
}

// tuple decodes the trailing tuple section of a frame body starting at at.
func (fr *FrameReader) tuple(body []byte, at int, t *Tuple) error {
	code, at, err := fr.varint(body, at, "code")
	if err != nil {
		return err
	}
	action, at, err := fr.varint(body, at, "action")
	if err != nil {
		return err
	}
	if len(body)-at != 8 {
		return fr.frameErr("reward (want exactly 8 trailing bytes)")
	}
	t.Code = int(code)
	t.Action = int(action)
	t.Reward = math.Float64frombits(binary.LittleEndian.Uint64(body[at:]))
	return nil
}
