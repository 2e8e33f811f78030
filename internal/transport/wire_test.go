package transport

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"p2b/internal/rng"
)

func roundTrip(t *testing.T, envs []Envelope) []Envelope {
	t.Helper()
	buf := AppendMagic(nil)
	for i := range envs {
		buf = envs[i].AppendFrame(buf)
	}
	fr, err := NewFrameReader(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var out []Envelope
	for {
		var e Envelope
		err := fr.Next(&e)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

func TestWireRoundTrip(t *testing.T) {
	envs := []Envelope{
		{Meta: Metadata{DeviceID: "device-7", Addr: "10.0.0.1:1234", SentAt: 1710000000123456789},
			Tuple: Tuple{Code: 42, Action: 3, Reward: 0.625}},
		{Tuple: Tuple{Code: 0, Action: 0, Reward: 0}}, // zero meta, zero tuple
		{Meta: Metadata{SentAt: -5}, Tuple: Tuple{Code: -1, Action: -2, Reward: -1}},
		{Meta: Metadata{DeviceID: strings.Repeat("x", 300)},
			Tuple: Tuple{Code: 1 << 30, Action: 19, Reward: math.MaxFloat64}},
	}
	got := roundTrip(t, envs)
	if len(got) != len(envs) {
		t.Fatalf("decoded %d envelopes, want %d", len(got), len(envs))
	}
	for i := range envs {
		if got[i] != envs[i] {
			t.Fatalf("envelope %d: got %+v, want %+v", i, got[i], envs[i])
		}
	}
}

func TestWireRoundTripRandomized(t *testing.T) {
	r := rng.New(11)
	envs := make([]Envelope, 500)
	for i := range envs {
		e := &envs[i]
		if r.Float64() < 0.7 {
			e.Meta.DeviceID = strings.Repeat("d", r.IntN(20))
			e.Meta.Addr = strings.Repeat("a", r.IntN(20))
			e.Meta.SentAt = int64(r.Uint64() >> 1)
		}
		e.Tuple = Tuple{Code: r.IntN(4096), Action: r.IntN(100), Reward: r.Float64()*2 - 1}
	}
	got := roundTrip(t, envs)
	for i := range envs {
		if got[i] != envs[i] {
			t.Fatalf("envelope %d: got %+v, want %+v", i, got[i], envs[i])
		}
	}
}

func TestWireNextTupleSkipsMetadata(t *testing.T) {
	envs := []Envelope{
		{Meta: Metadata{DeviceID: "SECRET", Addr: "1.2.3.4:5", SentAt: 99},
			Tuple: Tuple{Code: 7, Action: 1, Reward: 0.5}},
		{Tuple: Tuple{Code: 8, Action: 2, Reward: 1}},
	}
	buf := AppendMagic(nil)
	for i := range envs {
		buf = envs[i].AppendFrame(buf)
	}
	fr, err := NewFrameReader(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	for i := range envs {
		var tup Tuple
		if err := fr.NextTuple(&tup); err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if tup != envs[i].Tuple {
			t.Fatalf("tuple %d: got %+v, want %+v", i, tup, envs[i].Tuple)
		}
	}
	var tup Tuple
	if err := fr.NextTuple(&tup); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

func TestWireNextTupleZeroAlloc(t *testing.T) {
	// The server ingestion path must not allocate per envelope, even when
	// frames carry metadata. Reading from a bytes.Reader exercises the
	// decoder itself; the one-time bufio and frame buffers are excluded by
	// warming the reader outside the measured loop (a fresh reader per run
	// would charge setup to every envelope).
	const n = 1024
	e := Envelope{
		Meta:  Metadata{DeviceID: "device-000042", Addr: "203.0.113.9:443", SentAt: 1},
		Tuple: Tuple{Code: 17, Action: 3, Reward: 0.25},
	}
	buf := AppendMagic(nil)
	// AllocsPerRun warms the closure once itself, plus our explicit warm
	// read; encode a few spare frames so the measured loop never hits EOF.
	for i := 0; i < n+8; i++ {
		buf = e.AppendFrame(buf)
	}
	fr, err := NewFrameReader(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var tup Tuple
	if err := fr.NextTuple(&tup); err != nil { // warm the frame buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(n, func() {
		if err := fr.NextTuple(&tup); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("NextTuple allocates %v per envelope, want 0", allocs)
	}
}

// bodyTuple's 11-byte fast path must decode every body it takes — no
// metadata, one-byte code and action — to the tuple the general frame
// rule reads, and hand every other body to that rule. Checked over the
// whole one-byte code × action square.
func TestWireFastPathMatchesGeneralRule(t *testing.T) {
	body := []byte{0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}
	for code := 0; code < 0x80; code++ {
		for action := 0; action < 0x80; action++ {
			body[1], body[2] = byte(code), byte(action)
			var fast, general Tuple
			if err := bodyTuple(body, 0, &fast); err != nil {
				t.Fatalf("body % x: %v", body, err)
			}
			if err := tupleAt(body, 1, 0, &general); err != nil {
				t.Fatalf("body % x: general rule: %v", body, err)
			}
			if !sameTuple(fast, general) {
				t.Fatalf("body % x: fast path %+v, general rule %+v", body, fast, general)
			}
		}
	}
	for _, c := range []struct {
		name string
		body []byte
		ok   bool
	}{
		{"two-byte code, 7 reward bytes", []byte{0, 0x80, 0x01, 0, 1, 2, 3, 4, 5, 6, 7}, false},
		{"two-byte action, 7 reward bytes", []byte{0, 0x02, 0x80, 0x01, 1, 2, 3, 4, 5, 6, 7}, false},
		{"one-byte metadata section, 7 reward bytes", []byte{1, 0, 0x02, 0x04, 1, 2, 3, 4, 5, 6, 7}, false},
		{"non-minimal metadata length", []byte{0x80, 0x00, 0x02, 0x04, 1, 2, 3, 4, 5, 6, 7, 8}, true},
	} {
		var got Tuple
		if err := bodyTuple(c.body, 0, &got); (err == nil) != c.ok {
			t.Fatalf("%s: err %v, want accepted %v", c.name, err, c.ok)
		}
	}
}

func TestWireBadMagic(t *testing.T) {
	_, err := NewFrameReader(strings.NewReader("NOPE and then some"))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
	_, err = NewFrameReader(strings.NewReader("P2"))
	if err == nil {
		t.Fatal("truncated magic accepted")
	}
}

func TestWireTruncatedFrame(t *testing.T) {
	e := Envelope{Meta: Metadata{DeviceID: "d"}, Tuple: Tuple{Code: 3, Action: 1, Reward: 1}}
	full := e.AppendFrame(AppendMagic(nil))
	for cut := len(Magic) + 1; cut < len(full); cut++ {
		fr, err := NewFrameReader(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: magic should parse: %v", cut, err)
		}
		var got Envelope
		err = fr.Next(&got)
		if err == nil || err == io.EOF {
			t.Fatalf("cut %d: truncated frame not rejected (err=%v)", cut, err)
		}
	}
}

func TestWireFrameTooLarge(t *testing.T) {
	buf := AppendMagic(nil)
	buf = append(buf, 0xFF, 0xFF, 0x7F) // uvarint length far beyond MaxFrameBytes
	fr, err := NewFrameReader(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var e Envelope
	if err := fr.Next(&e); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestWireRejectsTrailingGarbageInFrame(t *testing.T) {
	e := Envelope{Tuple: Tuple{Code: 1, Action: 2, Reward: 0.5}}
	frame := e.AppendFrame(nil)
	// Corrupt: lengthen the body by 2 garbage bytes and fix the prefix.
	body := append([]byte(nil), frame[1:]...)
	body = append(body, 0xAB, 0xCD)
	buf := AppendMagic(nil)
	buf = append(buf, byte(len(body)))
	buf = append(buf, body...)
	fr, err := NewFrameReader(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var got Envelope
	if err := fr.Next(&got); err == nil {
		t.Fatal("frame with trailing garbage accepted")
	}
}

func TestWireMetaLengthBeyondBody(t *testing.T) {
	buf := AppendMagic(nil)
	// body: metaLen=200 but only a few bytes follow.
	body := []byte{200, 1, 2, 3}
	buf = append(buf, byte(len(body)))
	buf = append(buf, body...)
	fr, err := NewFrameReader(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var e Envelope
	if err := fr.Next(&e); err == nil {
		t.Fatal("overlong metadata length accepted")
	}
	fr2, _ := NewFrameReader(bytes.NewReader(buf))
	var tup Tuple
	if err := fr2.NextTuple(&tup); err == nil {
		t.Fatal("overlong metadata length accepted by NextTuple")
	}
}

func TestWireNonFiniteRewardSurvivesCodec(t *testing.T) {
	// The codec is faithful: policy (rejecting NaN) lives in the HTTP
	// layer, not the encoding.
	e := Envelope{Tuple: Tuple{Code: 1, Action: 1, Reward: math.NaN()}}
	got := roundTrip(t, []Envelope{e})
	if !math.IsNaN(got[0].Tuple.Reward) {
		t.Fatalf("NaN reward decoded as %v", got[0].Tuple.Reward)
	}
}

// readEnvelopes decodes a batch stream with Next up to its first error;
// err is nil exactly when the stream ended cleanly.
func readEnvelopes(data []byte) (envs []Envelope, err error) {
	fr, err := NewFrameReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	for {
		var e Envelope
		if err := fr.Next(&e); err != nil {
			if err == io.EOF {
				err = nil
			}
			return envs, err
		}
		envs = append(envs, e)
	}
}

// readTuples is readEnvelopes through the identity-skipping NextTuple.
func readTuples(data []byte) (tuples []Tuple, err error) {
	fr, err := NewFrameReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	for {
		var t Tuple
		if err := fr.NextTuple(&t); err != nil {
			if err == io.EOF {
				err = nil
			}
			return tuples, err
		}
		tuples = append(tuples, t)
	}
}

func sameTuple(a, b Tuple) bool {
	return a.Code == b.Code && a.Action == b.Action && math.Float64bits(a.Reward) == math.Float64bits(b.Reward)
}

func sameEnvelope(a, b Envelope) bool {
	return a.Meta == b.Meta && sameTuple(a.Tuple, b.Tuple)
}

// FuzzFrameReader holds the P2B1 batch decoder to what every decoder of
// untrusted bytes owes: it never panics and allocates at most a constant
// multiple of its input. On top of that, NextTuple — which skips the
// metadata unread — must agree with Next on every tuple Next accepts, and
// the envelopes Next accepts must survive AppendFrame and a second decode
// unchanged. The stream need not re-encode to its own bytes: P2B1 accepts
// non-minimal varints and an explicit all-empty metadata section, so some
// envelopes have more than one encoding. The seeds are the SDK's golden
// report bodies (agent/testdata/wire_golden.txt).
func FuzzFrameReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		grew := allocated(func() {
			if fr, err := NewFrameReader(bytes.NewReader(data)); err == nil {
				var e Envelope
				for fr.Next(&e) == nil {
				}
			}
		})
		if limit := 64<<10 + 8*uint64(len(data)); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), grew, limit)
		}

		envs, envErr := readEnvelopes(data)
		tuples, tupleErr := readTuples(data)
		if len(tuples) < len(envs) {
			t.Fatalf("NextTuple stopped after %d tuples (%v), Next read %d envelopes", len(tuples), tupleErr, len(envs))
		}
		for i, e := range envs {
			if !sameTuple(e.Tuple, tuples[i]) {
				t.Fatalf("frame %d: Next read %+v, NextTuple %+v", i, e.Tuple, tuples[i])
			}
		}
		if envErr == nil && (tupleErr != nil || len(tuples) != len(envs)) {
			t.Fatalf("Next read a clean stream of %d envelopes, NextTuple %d tuples (%v)", len(envs), len(tuples), tupleErr)
		}

		buf := AppendMagic(nil)
		for i := range envs {
			buf = envs[i].AppendFrame(buf)
		}
		again, err := readEnvelopes(buf)
		if err != nil {
			t.Fatalf("re-encoded stream refused: %v", err)
		}
		if len(again) != len(envs) {
			t.Fatalf("re-encoded stream decodes to %d envelopes, want %d", len(again), len(envs))
		}
		for i := range envs {
			if !sameEnvelope(again[i], envs[i]) {
				t.Fatalf("frame %d: re-encoded as %+v, accepted as %+v", i, again[i], envs[i])
			}
		}
	})
}

// FuzzDecodeTuples holds the in-memory batch decoder to the streaming one:
// on the same bytes DecodeTuples must accept exactly when a FrameReader
// drains the stream with NextTuple to a clean io.EOF, and both must yield
// the same tuples — on a refused stream, the same tuples before the bad
// frame. DecodeTuples appends to dst without disturbing what dst holds.
// The seeds are the SDK's golden report bodies plus WAL-shaped streams and
// their edge cases.
func FuzzDecodeTuples(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := readTuples(data)
		got, err := DecodeTuples(nil, data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeTuples error %v, FrameReader error %v", err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("DecodeTuples read %d tuples (%v), FrameReader %d (%v)", len(got), err, len(want), wantErr)
		}
		for i := range want {
			if !sameTuple(got[i], want[i]) {
				t.Fatalf("tuple %d: DecodeTuples %+v, FrameReader %+v", i, got[i], want[i])
			}
		}
		head := Tuple{Code: -1, Action: -1, Reward: -1}
		again, _ := DecodeTuples([]Tuple{head}, data)
		if len(again) != 1+len(got) || again[0] != head {
			t.Fatalf("decoding after a held tuple gave %d tuples starting %+v", len(again), again[0])
		}
	})
}
