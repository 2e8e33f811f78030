package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/transport"
)

func postBatch(t *testing.T, url, contentType string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/reports", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// reportBatch posts envs as one binary batch and decodes the ack.
func reportBatch(t *testing.T, c *testClient, envs []transport.Envelope) BatchAck {
	t.Helper()
	resp := postBatch(t, c.ShufflerURL, transport.ContentTypeBinary, encodeBatch(envs))
	defer resp.Body.Close()
	var ack BatchAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); resp.StatusCode != http.StatusAccepted || err != nil {
		t.Fatalf("batch POST: status %d, ack decode: %v", resp.StatusCode, err)
	}
	return ack
}

func encodeBatch(envs []transport.Envelope) []byte {
	body := transport.AppendMagic(nil)
	for i := range envs {
		body = envs[i].AppendFrame(body)
	}
	return body
}

func TestBatchRouteBinary(t *testing.T) {
	client, srv, _, cleanup := newStack(t, 0)
	defer cleanup()
	envs := make([]transport.Envelope, 10)
	for i := range envs {
		envs[i] = transport.Envelope{
			Meta:  transport.Metadata{DeviceID: fmt.Sprintf("dev-%d", i), SentAt: int64(i)},
			Tuple: transport.Tuple{Code: 2, Action: 1, Reward: 1},
		}
	}
	ack := reportBatch(t, client, envs)
	if ack.Accepted != 10 || ack.Dropped != 0 {
		t.Fatalf("ack %+v", ack)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.TuplesIngested != 10 {
		t.Fatalf("server ingested %d, want 10", st.TuplesIngested)
	}
}

func TestBatchRouteNDJSON(t *testing.T) {
	client, srv, _, cleanup := newStack(t, 0)
	defer cleanup()
	var body strings.Builder
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&body, `{"meta":{"device_id":"d%d","addr":"","sent_at":1},"tuple":{"code":3,"action":2,"reward":0.5}}`+"\n", i)
	}
	resp := postBatch(t, client.ShufflerURL, transport.ContentTypeNDJSON, []byte(body.String()))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.TuplesIngested != 6 {
		t.Fatalf("server ingested %d, want 6", st.TuplesIngested)
	}
}

func TestBatchRouteUnsupportedContentType(t *testing.T) {
	client, _, _, cleanup := newStack(t, 0)
	defer cleanup()
	resp := postBatch(t, client.ShufflerURL, "text/plain", []byte("hello"))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("status %d, want 415", resp.StatusCode)
	}
}

func TestBatchRouteMethodNotAllowed(t *testing.T) {
	client, _, _, cleanup := newStack(t, 0)
	defer cleanup()
	resp, err := http.Get(client.ShufflerURL + "/reports")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
}

func TestBatchRouteBadMagic(t *testing.T) {
	client, _, _, cleanup := newStack(t, 0)
	defer cleanup()
	resp := postBatch(t, client.ShufflerURL, transport.ContentTypeBinary, []byte("not a p2b stream"))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestBatchRouteTruncatedFrameKeepsEarlierChunks(t *testing.T) {
	client, _, shuf, cleanup := newStack(t, 0)
	defer cleanup()
	good := encodeBatch([]transport.Envelope{
		{Tuple: transport.Tuple{Code: 1, Action: 0, Reward: 1}},
		{Tuple: transport.Tuple{Code: 2, Action: 0, Reward: 1}},
	})
	body := append(good, 0x20) // a frame length prefix with no frame behind it
	resp := postBatch(t, client.ShufflerURL, transport.ContentTypeBinary, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	msg, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(msg), "after 2 accepted") {
		t.Fatalf("error should report accepted count, got: %s", msg)
	}
	if st := shuf.Stats(); st.Received != 2 {
		t.Fatalf("shuffler received %d, want the 2 pre-truncation tuples", st.Received)
	}
}

func TestBatchRouteMalformedNDJSON(t *testing.T) {
	client, _, _, cleanup := newStack(t, 0)
	defer cleanup()
	body := `{"tuple":{"code":1,"action":0,"reward":1}}` + "\n" + `{not json` + "\n"
	resp := postBatch(t, client.ShufflerURL, transport.ContentTypeNDJSON, []byte(body))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestBatchRouteDropsInvalidTuples(t *testing.T) {
	client, srv, _, cleanup := newStack(t, 0)
	defer cleanup()
	envs := []transport.Envelope{
		{Tuple: transport.Tuple{Code: 1, Action: 1, Reward: math.NaN()}},
		{Tuple: transport.Tuple{Code: 1, Action: 1, Reward: math.Inf(1)}},
		{Tuple: transport.Tuple{Code: 1, Action: 1, Reward: math.Inf(-1)}},
		{Tuple: transport.Tuple{Code: -1, Action: 1, Reward: 0.5}},
		{Tuple: transport.Tuple{Code: 1, Action: -3, Reward: 0.5}},
		{Tuple: transport.Tuple{Code: 1, Action: 1, Reward: 0.5}}, // the one good citizen
	}
	ack := reportBatch(t, client, envs)
	if ack.Accepted != 1 || ack.Dropped != 5 {
		t.Fatalf("ack %+v, want 1 accepted / 5 dropped", ack)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.TuplesIngested != 1 {
		t.Fatalf("server ingested %d, want 1", st.TuplesIngested)
	}
}

func TestOversizedBodiesGet413(t *testing.T) {
	client, _, _, cleanup := newStack(t, 0)
	defer cleanup()

	// Single-report route: 1 MiB limit.
	huge := []byte(`{"meta":{"device_id":"` + strings.Repeat("x", maxBodyBytes+16) + `"}}`)
	resp, err := http.Post(client.ShufflerURL+"/report", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("/report status %d, want 413", resp.StatusCode)
	}

	// Batch route: 32 MiB limit. A valid stream prefix followed by enough
	// bytes to cross the cap; the decoder must fail on the reader limit,
	// not by buffering the body.
	body := encodeBatch([]transport.Envelope{{Tuple: transport.Tuple{Code: 1, Action: 1, Reward: 1}}})
	filler := encodeBatch([]transport.Envelope{{
		Meta:  transport.Metadata{DeviceID: strings.Repeat("f", 1024)},
		Tuple: transport.Tuple{Code: 1, Action: 1, Reward: 1},
	}})[len(transport.Magic):]
	for len(body) <= maxBatchBodyBytes {
		body = append(body, filler...)
	}
	resp2 := postBatch(t, client.ShufflerURL, transport.ContentTypeBinary, body)
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		msg, _ := io.ReadAll(resp2.Body)
		t.Fatalf("/reports status %d, want 413: %s", resp2.StatusCode, msg)
	}
}

func TestBatchRouteMatchesPerEnvelopeRouteBitExactly(t *testing.T) {
	// The acceptance bar of the wire protocol: the same tuple stream
	// submitted per-envelope and batched must yield bit-identical server
	// state, and no metadata may survive to any server-side surface.
	const n, batchSize, threshold = 200, 16, 3
	r := rng.New(13)
	tuples := make([]transport.Tuple, n)
	for i := range tuples {
		tuples[i] = transport.Tuple{Code: r.IntN(6), Action: r.IntN(4), Reward: r.Float64()}
	}
	newNode := func() (*server.Server, *httptest.Server) {
		srv := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 1})
		shuf := shuffler.New(shuffler.Config{BatchSize: batchSize, Threshold: threshold}, srv, rng.New(99))
		return srv, httptest.NewServer(NewNodeHandler(shuf, srv))
	}

	srvA, tsA := newNode()
	defer tsA.Close()
	envs := make([]transport.Envelope, n)
	for i, tup := range tuples {
		envs[i] = transport.Envelope{
			Meta:  transport.Metadata{DeviceID: fmt.Sprintf("SECRET-DEVICE-%d", i), SentAt: 7},
			Tuple: tup,
		}
	}
	clientA := newTestClient(tsA.URL)
	for _, e := range envs {
		if err := clientA.Report(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := clientA.Flush(); err != nil {
		t.Fatal(err)
	}

	srvB, tsB := newNode()
	defer tsB.Close()
	clientB := newTestClient(tsB.URL)
	// Serial POSTs of 32 preserve submission order, which is what makes
	// the comparison bit-exact rather than merely additive.
	for at := 0; at < n; at += 32 {
		reportBatch(t, clientB, envs[at:min(at+32, n)])
	}
	if err := clientB.Flush(); err != nil {
		t.Fatal(err)
	}

	stateA, stateB := srvA.TabularSnapshot(), srvB.TabularSnapshot()
	if !reflect.DeepEqual(stateA, stateB) {
		t.Fatalf("server states diverged:\nA: %+v\nB: %+v", stateA, stateB)
	}
	if srvA.Stats().TuplesIngested != srvB.Stats().TuplesIngested {
		t.Fatalf("ingestion counts diverged: %d vs %d",
			srvA.Stats().TuplesIngested, srvB.Stats().TuplesIngested)
	}

	// Metadata scrubbing: no server-side surface may leak a device ID.
	for _, path := range []string{"/server/model?kind=tabular", "/server/stats", "/shuffler/stats"} {
		resp, err := http.Get(tsB.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(blob), "SECRET") {
			t.Fatalf("%s leaks sender metadata: %s", path, blob)
		}
	}
}

// BenchmarkIngestBinary measures the server-side decode+submit path in
// isolation (no HTTP): the per-envelope cost the batch route adds on top
// of the shuffler itself.
func BenchmarkIngestBinary(b *testing.B) {
	srv := server.New(server.Config{K: 64, Arms: 8, D: 3, Alpha: 1, Seed: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 256, Threshold: 0}, srv, rng.New(2))
	envs := make([]transport.Envelope, 1024)
	r := rng.New(3)
	for i := range envs {
		envs[i] = transport.Envelope{
			Meta:  transport.Metadata{DeviceID: "device-123456", Addr: "10.1.2.3:99", SentAt: 1},
			Tuple: transport.Tuple{Code: r.IntN(64), Action: r.IntN(8), Reward: r.Float64()},
		}
	}
	body := encodeBatch(envs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ack, err := ingestBinary(shufflerIngestor{shuf}, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if ack.Accepted != len(envs) {
			b.Fatalf("ack %+v", ack)
		}
	}
	b.SetBytes(int64(len(body)))
}

func TestReportRouteRejectsInvalidTuple(t *testing.T) {
	// The single-envelope route applies the same admission policy as the
	// batch route: a tuple either enters the shuffler on both or neither.
	client, _, shuf, cleanup := newStack(t, 0)
	defer cleanup()
	err := client.Report(transport.Envelope{Tuple: transport.Tuple{Code: -1, Action: 0, Reward: 1}})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("negative code not rejected: %v", err)
	}
	if st := shuf.Stats(); st.Received != 0 {
		t.Fatalf("invalid tuple reached the shuffler: %+v", st)
	}
}
