// Binary form of PersistedState: the state body of a P2BS peer update
// (internal/topology), which both anti-entropy paths carry, and of a
// checkpoint (internal/persist), which adds Relays itself. It follows
// the P2BM conventions — uvarint shapes and counters, raw little-endian
// float64 cells — so a contribution merged from the wire is bit-identical
// to the sender's export:
//
//	state := uvarint(k) uvarint(arms) uvarint(d) f64le(alpha)
//	         uvarint(tuples) uvarint(raw) uvarint(snapshots)
//	         k*arms f64le cell counts, k*arms f64le cell sums
//	         per arm: d*d f64le lin a (row-major), d f64le lin b, uvarint(lin n)
//
// Relays is never encoded. It is the sender's relay duplicate-guard
// bookkeeping, and a receiver stores the state as the sender's
// contribution: inheriting the guard would make it drop relay batches it
// never saw.
//
// Every float must be finite: accumulators of clamped rewards are finite
// by construction, so a NaN or ±Inf on the wire is corruption, and one
// stored would poison every model that folds the contribution in.
package server

import (
	"encoding/binary"
	"fmt"

	"p2b/internal/transport"
)

// AppendState appends the binary encoding of ps to dst. A state whose
// cells do not match its own shape is refused: its bytes would read back
// as a different state, not fail to read.
func AppendState(dst []byte, ps *PersistedState) ([]byte, error) {
	if n := ps.K * ps.Arms; len(ps.CellCount) != n || len(ps.CellSum) != n {
		return dst, fmt.Errorf("server: state tabular cells %d/%d, want %d", len(ps.CellCount), len(ps.CellSum), n)
	}
	if err := ps.Lin.validate("state lin", ps.Arms, ps.D); err != nil {
		return dst, err
	}
	dst = binary.AppendUvarint(dst, uint64(ps.K))
	dst = binary.AppendUvarint(dst, uint64(ps.Arms))
	dst = binary.AppendUvarint(dst, uint64(ps.D))
	dst = transport.AppendFloat64s(dst, ps.Alpha)
	dst = binary.AppendUvarint(dst, uint64(ps.Tuples))
	dst = binary.AppendUvarint(dst, uint64(ps.Raw))
	dst = binary.AppendUvarint(dst, uint64(ps.Snapshots))
	dst = transport.AppendFloat64s(dst, ps.CellCount...)
	dst = transport.AppendFloat64s(dst, ps.CellSum...)
	for a := 0; a < ps.Arms; a++ {
		dst = transport.AppendFloat64s(dst, ps.Lin.A[a]...)
		dst = transport.AppendFloat64s(dst, ps.Lin.B[a]...)
		dst = binary.AppendUvarint(dst, uint64(ps.Lin.N[a]))
	}
	return dst, nil
}

// ReadState decodes one state body from r, which the caller checks for
// trailing bytes. Shapes must be at least 1, as a Server's are; whether
// they match this server is MergePeerState's check, not the codec's.
func ReadState(r *transport.Reader) (*PersistedState, error) {
	k, err := r.Uvarint("k")
	if err != nil {
		return nil, err
	}
	arms, err := r.Uvarint("arms")
	if err != nil {
		return nil, err
	}
	d, err := r.Uvarint("d")
	if err != nil {
		return nil, err
	}
	if k == 0 || arms == 0 || d == 0 {
		return nil, fmt.Errorf("server: state shape k=%d arms=%d d=%d has an empty dimension", k, arms, d)
	}
	ps := &PersistedState{}
	var alpha [1]float64
	if err := r.FiniteFloat64s(alpha[:], "alpha"); err != nil {
		return nil, err
	}
	ps.Alpha = alpha[0]
	if ps.Tuples, err = r.Int64("tuples"); err != nil {
		return nil, err
	}
	if ps.Raw, err = r.Int64("raw"); err != nil {
		return nil, err
	}
	if ps.Snapshots, err = r.Int64("snapshots"); err != nil {
		return nil, err
	}

	// Both checks precede every make, and together they bound each count
	// by the bytes left, which also makes the int conversions safe. d
	// leads the lin product so that d+1 cannot wrap.
	if err := r.Need("cells", 16, k, arms); err != nil {
		return nil, err
	}
	if err := r.Need("lin accumulator", 8, d, d+1, arms); err != nil {
		return nil, err
	}
	ps.K, ps.Arms, ps.D = int(k), int(arms), int(d)
	ps.CellCount = make([]float64, k*arms)
	ps.CellSum = make([]float64, k*arms)
	if err := r.FiniteFloat64s(ps.CellCount, "cell counts"); err != nil {
		return nil, err
	}
	if err := r.FiniteFloat64s(ps.CellSum, "cell sums"); err != nil {
		return nil, err
	}
	dd := ps.D * ps.D
	a, b := make([]float64, ps.Arms*dd), make([]float64, ps.Arms*ps.D)
	ps.Lin = LinAccumState{A: make([][]float64, arms), B: make([][]float64, arms), N: make([]int64, arms)}
	for i := 0; i < ps.Arms; i++ {
		ps.Lin.A[i] = a[i*dd : (i+1)*dd : (i+1)*dd]
		if err := r.FiniteFloat64s(ps.Lin.A[i], "lin a"); err != nil {
			return nil, err
		}
		ps.Lin.B[i] = b[i*ps.D : (i+1)*ps.D : (i+1)*ps.D]
		if err := r.FiniteFloat64s(ps.Lin.B[i], "lin b"); err != nil {
			return nil, err
		}
		if ps.Lin.N[i], err = r.Int64("lin n"); err != nil {
			return nil, err
		}
	}
	return ps, nil
}
