package topology_test

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"

	"p2b/internal/server"
	"p2b/internal/topology"
	"p2b/internal/transport"
)

// stateFloats lists every float a PersistedState carries, in wire order.
func stateFloats(ps *server.PersistedState) []float64 {
	out := append([]float64{ps.Alpha}, ps.CellCount...)
	out = append(out, ps.CellSum...)
	for a := range ps.Lin.A {
		out = append(append(out, ps.Lin.A[a]...), ps.Lin.B[a]...)
	}
	return out
}

// The codec carries every field of an update but the relay guard, and
// every float bit for bit: -0, subnormals and the extremes included.
func TestPeerUpdateCodecRoundTripsEveryFieldButRelays(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	want := topology.PeerUpdate{
		Origin: "analyzer-ü",
		Epoch:  math.MaxUint64,
		Seq:    1<<40 + 3,
		State: &server.PersistedState{
			K: 2, Arms: 2, D: 2, Alpha: 0x1p-1030, // subnormal
			CellCount: []float64{math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64, tiny},
			CellSum:   []float64{-tiny, 1, -0.25, 3e-310},
			Lin: server.LinAccumState{
				A: [][]float64{{1, math.Copysign(0, -1), 3, 4}, {5, -6, 7, math.MaxFloat64}},
				B: [][]float64{{tiny, -9}, {0.1, -math.MaxFloat64}},
				N: []int64{0, math.MaxInt64},
			},
			Tuples: math.MaxInt64, Raw: 7, Snapshots: 1 << 33,
			Relays: map[string]server.PeerSeq{"relay-1": {Epoch: 4, Seq: 5}},
		},
	}
	blob, err := topology.AppendPeerUpdate(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := topology.DecodePeerUpdate(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.State.Relays != nil {
		t.Fatalf("relay guard crossed the wire: %v", got.State.Relays)
	}
	stripped := *want.State
	stripped.Relays = nil
	want.State = &stripped
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the update:\n got %+v\nwant %+v", got, want)
	}
	// DeepEqual compares floats with ==, which cannot tell -0 from 0.
	gotF, wantF := stateFloats(got.State), stateFloats(want.State)
	for i := range wantF {
		if math.Float64bits(gotF[i]) != math.Float64bits(wantF[i]) {
			t.Fatalf("float %d: got bits %#x, want %#x", i, math.Float64bits(gotF[i]), math.Float64bits(wantF[i]))
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

// FuzzDecodePeerUpdate checks the decoder behind both anti-entropy routes:
// it never panics, it allocates at most a constant multiple of its input,
// and what it accepts re-encodes to the same bytes, so no float is rounded
// and no body has two readings.
func FuzzDecodePeerUpdate(f *testing.F) {
	srv := server.New(server.Config{K: 4, Arms: 2, D: 2, Alpha: 1})
	srv.Deliver([]transport.Tuple{{Code: 1, Action: 1, Reward: 0.5}, {Code: 3, Action: 0, Reward: -1}})
	if err := srv.IngestRaw(transport.RawTuple{Context: []float64{0.25, -2}, Action: 1, Reward: 1}); err != nil {
		f.Fatal(err)
	}
	seed, err := topology.AppendPeerUpdate(nil, topology.PeerUpdate{Origin: "analyzer-1", Epoch: 7, Seq: 3, State: srv.ExportState()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var u topology.PeerUpdate
		var err error
		grew := allocated(func() { u, err = topology.DecodePeerUpdate(data) })
		if limit := 64<<10 + 8*uint64(len(data)); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		again, err := topology.AppendPeerUpdate(nil, u)
		if err != nil {
			t.Fatalf("accepted update does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted update re-encodes differently:\n in %x\nout %x", data, again)
		}
	})
}
