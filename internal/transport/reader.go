// Decoding of the single-message binary formats: the P2BM model stream
// (modelwire.go), the P2BS peer state (internal/topology, with its state
// body in internal/server) and the checkpoint body (internal/persist).
// Unlike a P2B1 batch stream, each arrives as one fully read body, so its
// decoder walks a byte slice.
//
// Two rules give every accepted message exactly one encoding, which is
// what lets a fuzzer check decode∘encode = identity: a uvarint must use
// its shortest form, and a message ends exactly where its decoder stops.
// A third keeps a crafted header from sizing an allocation: a count read
// from the message is checked against the bytes left (Need) before any
// make trusts it.
package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// AppendFloat64s appends vs as little-endian float64s, the encoding
// Reader.Float64s reads back bit for bit.
func AppendFloat64s(dst []byte, vs ...float64) []byte {
	dst = slices.Grow(dst, 8*len(vs))
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// Reader walks one fully read binary message. Every read is bounds
// checked and every error is prefixed with the message's name.
type Reader struct {
	data []byte
	at   int
	name string
}

// NewReader returns a Reader over data; name prefixes its errors
// ("transport: model stream").
func NewReader(data []byte, name string) Reader {
	return Reader{data: data, name: name}
}

func (r *Reader) errorf(format string, args ...any) error {
	return fmt.Errorf("%s: %s", r.name, fmt.Sprintf(format, args...))
}

func (r *Reader) left() uint64 { return uint64(len(r.data) - r.at) }

// Byte reads one byte.
func (r *Reader) Byte(what string) (byte, error) {
	if r.at >= len(r.data) {
		return 0, r.errorf("missing %s", what)
	}
	b := r.data[r.at]
	r.at++
	return b, nil
}

// Uvarint reads one uvarint in its shortest form; a zero final byte after
// the first marks a longer one, which is refused.
func (r *Reader) Uvarint(what string) (uint64, error) {
	v, w := binary.Uvarint(r.data[r.at:])
	if w <= 0 {
		return 0, r.errorf("malformed %s", what)
	}
	if w > 1 && r.data[r.at+w-1] == 0 {
		return 0, r.errorf("non-minimal %s", what)
	}
	r.at += w
	return v, nil
}

// Int64 reads a uvarint that must fit in an int64: a count or counter,
// which an int64 holds on both sides of the wire.
func (r *Reader) Int64(what string) (int64, error) {
	v, err := r.Uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64 {
		return 0, r.errorf("%s overflows int64", what)
	}
	return int64(v), nil
}

// Bytes returns the next n bytes, aliasing the message.
func (r *Reader) Bytes(n uint64, what string) ([]byte, error) {
	if n > r.left() {
		return nil, r.errorf("truncated %s", what)
	}
	b := r.data[r.at : r.at+int(n)]
	r.at += int(n)
	return b, nil
}

// Need refuses unless size bytes times the product of counts still fit in
// the message: the check a decoder makes before it sizes a make from
// counts it has just read. The product is bounded factor by factor, so
// counts chosen to overflow uint64 are refused too. size must be at least
// one.
func (r *Reader) Need(what string, size uint64, counts ...uint64) error {
	left := r.left()
	for _, c := range counts {
		if c == 0 {
			return nil
		}
		if c > left/size {
			return r.errorf("truncated %s", what)
		}
		size *= c
	}
	return nil
}

// Float64s fills dst with little-endian float64s.
func (r *Reader) Float64s(dst []float64, what string) error {
	if uint64(len(dst)) > r.left()/8 {
		return r.errorf("truncated %s", what)
	}
	src := r.data[r.at : r.at+8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	r.at += len(src)
	return nil
}

// FiniteFloat64s is Float64s for values that are finite by construction,
// such as accumulator sums: a NaN or ±Inf among them is refused.
func (r *Reader) FiniteFloat64s(dst []float64, what string) error {
	if err := r.Float64s(dst, what); err != nil {
		return err
	}
	for _, v := range dst {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r.errorf("non-finite value in %s", what)
		}
	}
	return nil
}

// Done refuses trailing bytes: they are corruption, not slack.
func (r *Reader) Done() error {
	if r.at != len(r.data) {
		return r.errorf("%d trailing bytes", len(r.data)-r.at)
	}
	return nil
}
