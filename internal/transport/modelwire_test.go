package transport

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"p2b/internal/bandit"
)

func sampleTabular() *bandit.TabularState {
	return &bandit.TabularState{
		Alpha: 1.5,
		K:     3,
		Arms:  2,
		Count: []float64{1, 0, 2, 5, 0, 3},
		Sum:   []float64{0.5, 0, 1.25, -0.5, 0, 2},
	}
}

func sampleLinear() *bandit.LinUCBState {
	return &bandit.LinUCBState{
		Alpha: 0.75,
		D:     2,
		Arms:  2,
		AInv:  [][]float64{{1, 0, 0, 1}, {0.5, 0.1, 0.1, 0.5}},
		B:     [][]float64{{0, 0}, {1.5, -2.25}},
		N:     []int64{0, 7},
	}
}

func TestTabularModelRoundTrip(t *testing.T) {
	want := sampleTabular()
	blob := AppendTabularModel(nil, 42, want)
	version, tab, lin, err := DecodeModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	if lin != nil {
		t.Fatal("tabular stream decoded a linear model")
	}
	if version != 42 {
		t.Fatalf("version %d, want 42", version)
	}
	if tab.Alpha != want.Alpha || tab.K != want.K || tab.Arms != want.Arms {
		t.Fatalf("header mismatch: %+v", tab)
	}
	for i := range want.Count {
		if tab.Count[i] != want.Count[i] || tab.Sum[i] != want.Sum[i] {
			t.Fatalf("cell %d mismatch", i)
		}
	}
}

func TestLinearModelRoundTrip(t *testing.T) {
	want := sampleLinear()
	blob := AppendLinearModel(nil, 7, want)
	version, tab, lin, err := DecodeModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	if tab != nil {
		t.Fatal("linear stream decoded a tabular model")
	}
	if version != 7 {
		t.Fatalf("version %d, want 7", version)
	}
	if lin.Alpha != want.Alpha || lin.D != want.D || lin.Arms != want.Arms {
		t.Fatalf("header mismatch: %+v", lin)
	}
	for a := 0; a < want.Arms; a++ {
		for i := range want.AInv[a] {
			if lin.AInv[a][i] != want.AInv[a][i] {
				t.Fatalf("arm %d AInv[%d] mismatch", a, i)
			}
		}
		for i := range want.B[a] {
			if lin.B[a][i] != want.B[a][i] {
				t.Fatalf("arm %d B[%d] mismatch", a, i)
			}
		}
		if lin.N[a] != want.N[a] {
			t.Fatalf("arm %d N mismatch", a)
		}
	}
}

func TestModelDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":        nil,
		"bad magic":    []byte("NOPE"),
		"missing kind": []byte(ModelMagic + "\x01"),
		"unknown kind": append([]byte(ModelMagic), 0x01, 0x09),
	}
	for name, blob := range cases {
		if _, _, _, err := DecodeModel(blob); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	// Truncations of a valid stream must all fail cleanly.
	full := AppendTabularModel(nil, 3, sampleTabular())
	for cut := len(ModelMagic); cut < len(full); cut++ {
		if _, _, _, err := DecodeModel(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing bytes are corruption, not slack.
	if _, _, _, err := DecodeModel(append(full, 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

// modelHeader is a stream of version 0 that stops right after its two
// shape uvarints.
func modelHeader(kind byte, a, b uint64) []byte {
	blob := append([]byte(ModelMagic), 0x00, kind)
	blob = appendUvarintForTest(blob, a)
	return appendUvarintForTest(blob, b)
}

func TestModelDecodeRejectsImplausibleShapes(t *testing.T) {
	header := modelHeader
	cases := map[string][]byte{
		"giant k":                 header(modelKindTabular, 1<<40, 100),
		"giant arms":              header(modelKindTabular, 4, 1<<40),
		"tabular product wrap":    header(modelKindTabular, 1<<32, 1<<32), // k*arms wraps to 0
		"giant d":                 header(modelKindLinear, 1<<40, 2),
		"linear d*d wrap":         header(modelKindLinear, 1<<63-1, 1),   // d*d+d wraps small
		"linear arms wrap":        header(modelKindLinear, 1<<20, 1<<44), // arms*(d*d+d) wraps
		"linear product too-wide": header(modelKindLinear, 4000, 4000),
	}
	// A pull count above MaxInt64 must be rejected, not wrapped negative.
	blob := header(modelKindLinear, 1, 1)
	blob = append(blob, make([]byte, 8)...)  // alpha
	blob = append(blob, make([]byte, 8)...)  // a_inv (1x1)
	blob = append(blob, make([]byte, 8)...)  // b (1)
	blob = appendUvarintForTest(blob, 1<<63) // n
	cases["negative pull count wrap"] = blob
	for name, blob := range cases {
		// A guard bypass surfaces as a makeslice panic or an OOM-sized
		// allocation, not just a nil error.
		if _, _, _, err := DecodeModel(blob); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// allocated returns the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A plausible shape is still only a claim: the cells it announces must not
// be allocated before the bytes behind them arrive. Both headers decoded
// into hundreds of megabytes before the decoder checked the length.
func TestModelDecodeAllocatesNothingForAHeaderAlone(t *testing.T) {
	for name, blob := range map[string][]byte{
		"tabular k=arms=2^12":  modelHeader(modelKindTabular, 1<<12, 1<<12), // 2·2^24 cells, 268 MB
		"linear d=1 arms=2^23": modelHeader(modelKindLinear, 1, 1<<23),      // 3·2^23 slices, 470 MB
	} {
		var err error
		grew := allocated(func() { _, _, _, err = DecodeModel(blob) })
		if err == nil {
			t.Errorf("%s (%d bytes) accepted", name, len(blob))
		}
		if grew >= 64<<10 {
			t.Errorf("%s (%d bytes) allocated %d bytes before failing", name, len(blob), grew)
		}
	}
}

// FuzzDecodeModel checks what every decoder of untrusted bytes owes: it
// never panics, it allocates at most a constant multiple of its input, and
// what it accepts re-encodes to the same bytes, so no value is rounded and
// no stream has two readings.
func FuzzDecodeModel(f *testing.F) {
	f.Add(AppendTabularModel(nil, 3, sampleTabular()))
	f.Add(AppendLinearModel(nil, 7, sampleLinear()))
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			version uint64
			tab     *bandit.TabularState
			lin     *bandit.LinUCBState
			err     error
		)
		grew := allocated(func() { version, tab, lin, err = DecodeModel(data) })
		if limit := 64<<10 + 8*uint64(len(data)); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		var again []byte
		if tab != nil {
			again = AppendTabularModel(nil, version, tab)
		} else {
			again = AppendLinearModel(nil, version, lin)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted stream re-encodes differently:\n in %x\nout %x", data, again)
		}
	})
}

func appendUvarintForTest(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func TestModelRoundTripPreservesFloatBits(t *testing.T) {
	st := sampleTabular()
	st.Sum[0] = math.Copysign(0, -1) // -0 must survive
	st.Count[1] = math.MaxFloat64
	blob := AppendTabularModel(nil, 1, st)
	_, tab, _, err := DecodeModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(tab.Sum[0]) != math.Float64bits(st.Sum[0]) {
		t.Fatal("-0 not preserved")
	}
	if tab.Count[1] != math.MaxFloat64 {
		t.Fatal("MaxFloat64 not preserved")
	}
}
