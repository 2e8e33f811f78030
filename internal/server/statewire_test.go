package server

import (
	"encoding/binary"
	"math"
	"testing"

	"p2b/internal/transport"
)

// sampleState has a distinct value in every field the codec carries.
func sampleState() *PersistedState {
	return &PersistedState{
		K: 2, Arms: 2, D: 2, Alpha: 1.5,
		CellCount: []float64{1, 2, 3, 4},
		CellSum:   []float64{0.5, -1, 0, 2},
		Lin: LinAccumState{
			A: [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}},
			B: [][]float64{{9, 10}, {11, 12}},
			N: []int64{3, 9},
		},
		Tuples: 10, Raw: 12, Snapshots: 3,
	}
}

// readState decodes one whole state body.
func readState(blob []byte) (*PersistedState, error) {
	r := transport.NewReader(blob, "server test: state")
	ps, err := ReadState(&r)
	if err == nil {
		err = r.Done()
	}
	return ps, err
}

func mustAppendState(t *testing.T, ps *PersistedState) []byte {
	t.Helper()
	blob, err := AppendState(nil, ps)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// stateHeader is a body that stops after its shapes, a zero alpha and
// the given counters.
func stateHeader(k, arms, d uint64, counters ...uint64) []byte {
	blob := binary.AppendUvarint(nil, k)
	blob = binary.AppendUvarint(blob, arms)
	blob = binary.AppendUvarint(blob, d)
	blob = append(blob, make([]byte, 8)...)
	for _, c := range counters {
		blob = binary.AppendUvarint(blob, c)
	}
	return blob
}

func TestStateCodecRefusesMalformedBodies(t *testing.T) {
	good := mustAppendState(t, sampleState())
	if _, err := readState(good); err != nil {
		t.Fatalf("well-formed body refused: %v", err)
	}
	for cut := 0; cut < len(good); cut++ {
		if _, err := readState(good[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", cut, len(good))
		}
	}

	emptyK := sampleState()
	emptyK.K, emptyK.CellCount, emptyK.CellSum = 0, nil, nil
	cases := map[string][]byte{
		"trailing byte":   append(good[:len(good):len(good)], 0),
		"empty dimension": mustAppendState(t, emptyK),
		// k=2 spelled in two bytes: every value has exactly one encoding.
		"non-minimal uvarint":  append([]byte{0x82, 0x00}, good[1:]...),
		"counter above int64":  stateHeader(2, 2, 2, 1<<63, 0, 0),
		"cells beyond the end": stateHeader(1<<20, 1<<20, 1, 0, 0, 0),
		"k*arms wraps":         stateHeader(1<<32, 1<<32, 1, 0, 0, 0),
		"d+1 wraps":            stateHeader(1, 1, math.MaxUint64, 0, 0, 0),
	}
	// The accumulators are finite by construction, so NaN or ±Inf is
	// corruption in whichever section it lands.
	for name, poke := range map[string]func(*PersistedState){
		"alpha":      func(ps *PersistedState) { ps.Alpha = math.NaN() },
		"cell count": func(ps *PersistedState) { ps.CellCount[1] = math.Inf(1) },
		"cell sum":   func(ps *PersistedState) { ps.CellSum[3] = math.Inf(-1) },
		"lin a":      func(ps *PersistedState) { ps.Lin.A[1][2] = math.NaN() },
		"lin b":      func(ps *PersistedState) { ps.Lin.B[0][1] = math.Inf(1) },
	} {
		ps := sampleState()
		poke(ps)
		cases["non-finite "+name] = mustAppendState(t, ps)
	}
	for name, blob := range cases {
		if _, err := readState(blob); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// The encoder refuses a state whose cells disagree with its shape: it
// would otherwise write bytes that read back as a different state.
func TestAppendStateRefusesCellsThatDisagreeWithTheShape(t *testing.T) {
	for name, mangle := range map[string]func(*PersistedState){
		"short counts": func(ps *PersistedState) { ps.CellCount = ps.CellCount[:3] },
		"long sums":    func(ps *PersistedState) { ps.CellSum = append(ps.CellSum, 0) },
		"lin arms":     func(ps *PersistedState) { ps.Lin.N = ps.Lin.N[:1] },
		"lin a shape":  func(ps *PersistedState) { ps.Lin.A[0] = ps.Lin.A[0][:3] },
	} {
		ps := sampleState()
		mangle(ps)
		if _, err := AppendState(nil, ps); err == nil {
			t.Errorf("%s encoded", name)
		}
	}
}
