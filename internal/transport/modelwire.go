// Binary model wire format. The versioned model-sync route (GET
// /server/model) distributes global model snapshots to device fleets; this
// file defines the compact binary encoding those snapshots travel in,
// following the P2B1 batch codec conventions (magic header, uvarint/varint
// prefixes, little-endian float64 payloads).
//
// Layout:
//
//	stream  := magic "P2BM" uvarint(version) byte(kind) payload
//	kind    := 1 (tabular) | 2 (linear)
//	tabular := uvarint(k) uvarint(arms) f64le(alpha)
//	           k*arms f64le counts, k*arms f64le sums
//	linear  := uvarint(d) uvarint(arms) f64le(alpha)
//	           per arm: d*d f64le a_inv (row-major), d f64le b, uvarint(n)
//
// The version is the server's monotonic model version at snapshot time; it
// doubles as the ETag value of the HTTP route, so a fleet polling an
// unchanged model costs 304s, not payloads. Unlike the batch stream, a
// model stream is a single bounded message, so the decoder walks a fully
// read body with a Reader (reader.go) rather than a frame reader.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"p2b/internal/bandit"
)

// ContentTypeModel is the content type of the binary model encoding,
// negotiated on GET /server/model via the Accept header (JSON is the
// fallback).
const ContentTypeModel = "application/x-p2b-model"

// ModelMagic opens every binary model stream.
const ModelMagic = "P2BM"

// Model kind tags on the wire.
const (
	modelKindTabular = 1
	modelKindLinear  = 2
)

// maxModelCells bounds the cell count a decoder will allocate for: 1<<24
// float64 cells is 128 MiB of model, far beyond any real deployment, so
// anything larger is corruption or an attack on the client's memory.
const maxModelCells = 1 << 24

// ErrBadModelMagic reports a model stream that does not open with ModelMagic.
var ErrBadModelMagic = errors.New(`transport: model stream does not start with magic "P2BM"`)

// AppendTabularModel appends the binary encoding of a versioned tabular
// snapshot to dst and returns the extended slice.
func AppendTabularModel(dst []byte, version uint64, st *bandit.TabularState) []byte {
	dst = append(dst, ModelMagic...)
	dst = binary.AppendUvarint(dst, version)
	dst = append(dst, modelKindTabular)
	dst = binary.AppendUvarint(dst, uint64(st.K))
	dst = binary.AppendUvarint(dst, uint64(st.Arms))
	dst = AppendFloat64s(dst, st.Alpha)
	dst = AppendFloat64s(dst, st.Count...)
	return AppendFloat64s(dst, st.Sum...)
}

// AppendLinearModel appends the binary encoding of a versioned LinUCB
// snapshot to dst and returns the extended slice.
func AppendLinearModel(dst []byte, version uint64, st *bandit.LinUCBState) []byte {
	dst = append(dst, ModelMagic...)
	dst = binary.AppendUvarint(dst, version)
	dst = append(dst, modelKindLinear)
	dst = binary.AppendUvarint(dst, uint64(st.D))
	dst = binary.AppendUvarint(dst, uint64(st.Arms))
	dst = AppendFloat64s(dst, st.Alpha)
	for a := 0; a < st.Arms; a++ {
		dst = AppendFloat64s(dst, st.AInv[a]...)
		dst = AppendFloat64s(dst, st.B[a]...)
		var n int64
		if a < len(st.N) {
			n = st.N[a]
		}
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	return dst
}

// DecodeModel parses one binary model stream. Exactly one of the returned
// states is non-nil, matching the stream's kind tag.
func DecodeModel(data []byte) (version uint64, tab *bandit.TabularState, lin *bandit.LinUCBState, err error) {
	if len(data) < len(ModelMagic) || string(data[:len(ModelMagic)]) != ModelMagic {
		return 0, nil, nil, ErrBadModelMagic
	}
	mr := NewReader(data[len(ModelMagic):], "transport: model stream")
	version, err = mr.Uvarint("version")
	if err != nil {
		return 0, nil, nil, err
	}
	kind, err := mr.Byte("kind tag")
	if err != nil {
		return 0, nil, nil, err
	}
	switch kind {
	case modelKindTabular:
		tab, err = decodeTabular(&mr)
	case modelKindLinear:
		lin, err = decodeLinear(&mr)
	default:
		return 0, nil, nil, fmt.Errorf("transport: model stream: unknown kind %d", kind)
	}
	if err != nil {
		return 0, nil, nil, err
	}
	if err := mr.Done(); err != nil {
		return 0, nil, nil, err
	}
	return version, tab, lin, nil
}

func decodeTabular(mr *Reader) (*bandit.TabularState, error) {
	k, err := mr.Uvarint("k")
	if err != nil {
		return nil, err
	}
	arms, err := mr.Uvarint("arms")
	if err != nil {
		return nil, err
	}
	// Each factor is bounded before multiplying: a crafted header with
	// k, arms near 2^32 would otherwise wrap k*arms around uint64 and
	// slip past the cell bound into a huge (or panicking) allocation.
	if k == 0 || arms == 0 || k > maxModelCells || arms > maxModelCells || k > maxModelCells/arms {
		return nil, fmt.Errorf("transport: model stream: implausible tabular shape k=%d arms=%d", k, arms)
	}
	// A plausible shape still must not size the cells on the header's
	// word: the body has to be there before anything is allocated for it.
	if err := mr.Need("tabular body", 8, 1+2*k*arms); err != nil {
		return nil, err
	}
	st := &bandit.TabularState{
		K:     int(k),
		Arms:  int(arms),
		Count: make([]float64, k*arms),
		Sum:   make([]float64, k*arms),
	}
	var alpha [1]float64
	if err := mr.Float64s(alpha[:], "alpha"); err != nil {
		return nil, err
	}
	st.Alpha = alpha[0]
	if err := mr.Float64s(st.Count, "counts"); err != nil {
		return nil, err
	}
	if err := mr.Float64s(st.Sum, "sums"); err != nil {
		return nil, err
	}
	return st, nil
}

func decodeLinear(mr *Reader) (*bandit.LinUCBState, error) {
	d, err := mr.Uvarint("d")
	if err != nil {
		return nil, err
	}
	arms, err := mr.Uvarint("arms")
	if err != nil {
		return nil, err
	}
	// Stepwise bounds, for the same overflow reason as the tabular guard:
	// with d and arms individually capped at maxModelCells (2^24), d*d+d
	// stays far below 2^64, and the final product is checked by division.
	if d == 0 || arms == 0 || d > maxModelCells || arms > maxModelCells {
		return nil, fmt.Errorf("transport: model stream: implausible linear shape d=%d arms=%d", d, arms)
	}
	cells := d*d + d
	if cells > maxModelCells || arms > maxModelCells/cells {
		return nil, fmt.Errorf("transport: model stream: implausible linear shape d=%d arms=%d", d, arms)
	}
	var alpha [1]float64
	if err := mr.Float64s(alpha[:], "alpha"); err != nil {
		return nil, err
	}
	// Every arm is at least its cells plus a one-byte pull count.
	if err := mr.Need("linear body", 8*cells+1, arms); err != nil {
		return nil, err
	}
	st := &bandit.LinUCBState{
		Alpha: alpha[0],
		D:     int(d),
		Arms:  int(arms),
		AInv:  make([][]float64, arms),
		B:     make([][]float64, arms),
		N:     make([]int64, arms),
	}
	for a := 0; a < int(arms); a++ {
		st.AInv[a] = make([]float64, d*d)
		if err := mr.Float64s(st.AInv[a], "a_inv"); err != nil {
			return nil, err
		}
		st.B[a] = make([]float64, d)
		if err := mr.Float64s(st.B[a], "b"); err != nil {
			return nil, err
		}
		if st.N[a], err = mr.Int64("pull count"); err != nil {
			return nil, err
		}
	}
	return st, nil
}
