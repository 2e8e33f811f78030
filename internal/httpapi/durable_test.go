package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"p2b/internal/persist"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/transport"
)

func newDurableNode(t *testing.T, dir string) (*httptest.Server, *server.Server, *persist.Manager) {
	t.Helper()
	srv := server.New(server.Config{K: 16, Arms: 3, D: 2, Alpha: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 8, Threshold: 0}, srv, rng.New(4).Split("shuffler"))
	m, err := persist.Open(dir, shuf, srv, persist.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	h := NewNodeHandlerOpts(shuf, srv, NodeOptions{
		Ingest:     m,
		Checkpoint: m.Checkpoint,
		Health:     func() any { return m.Info() },
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, srv, m
}

func batchBody(tuples []transport.Tuple) []byte {
	buf := transport.AppendMagic(nil)
	for _, tup := range tuples {
		e := transport.Envelope{Meta: transport.Metadata{DeviceID: "dev", Addr: "a:1", SentAt: 9}, Tuple: tup}
		buf = e.AppendFrame(buf)
	}
	return buf
}

// A durable node must persist what it acked: reports POSTed over the batch
// route, then a process "restart" (new manager, fresh components, same
// dir), must reproduce the model bit-for-bit.
func TestDurableNodeSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ts, srv, m := newDurableNode(t, dir)

	tuples := make([]transport.Tuple, 21) // 2 full batches + 5 pending
	for i := range tuples {
		tuples[i] = transport.Tuple{Code: i % 4, Action: i % 3, Reward: 0.25}
	}
	resp, err := http.Post(ts.URL+"/shuffler/reports", transport.ContentTypeBinary, bytes.NewReader(batchBody(tuples)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	// One single-report POST rides along, exercising the envelope path.
	blob, _ := json.Marshal(transport.Envelope{Tuple: transport.Tuple{Code: 1, Action: 1, Reward: 1}})
	resp, err = http.Post(ts.URL+"/shuffler/report", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("report status %d", resp.StatusCode)
	}
	want, _ := json.Marshal(srv.TabularSnapshot())
	wantIngested := srv.Stats().TuplesIngested
	ts.Close()
	m.Close() // crash semantics: no flush, no checkpoint

	srv2 := server.New(server.Config{K: 16, Arms: 3, D: 2, Alpha: 1})
	shuf2 := shuffler.New(shuffler.Config{BatchSize: 8, Threshold: 0}, srv2, rng.New(4).Split("shuffler"))
	m2, err := persist.Open(dir, shuf2, srv2, persist.Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer m2.Close()
	got, _ := json.Marshal(srv2.TabularSnapshot())
	if string(got) != string(want) {
		t.Fatal("recovered tabular state diverged from pre-restart state")
	}
	if srv2.Stats().TuplesIngested != wantIngested {
		t.Fatalf("recovered ingest count %d, want %d", srv2.Stats().TuplesIngested, wantIngested)
	}
	if shuf2.Pending() != 6 { // 5 batched + 1 single report still unflushed
		t.Fatalf("recovered pending %d, want 6", shuf2.Pending())
	}
}

func TestAdminCheckpointAndHealthz(t *testing.T) {
	dir := t.TempDir()
	ts, _, _ := newDurableNode(t, dir)

	resp, err := http.Post(ts.URL+"/shuffler/reports", transport.ContentTypeBinary,
		bytes.NewReader(batchBody([]transport.Tuple{{Code: 1, Action: 1, Reward: 1}})))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Post(ts.URL+"/admin/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("checkpoint status %d", resp.StatusCode)
	}
	// GET on the admin route is refused.
	resp, err = http.Get(ts.URL + "/admin/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET checkpoint status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status  string       `json:"status"`
		Persist persist.Info `json:"persist"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Fatalf("healthz status %q", health.Status)
	}
	if health.Persist.CheckpointSeq == 0 || health.Persist.WALSeq == 0 {
		t.Fatalf("healthz persist section missing checkpoint: %+v", health.Persist)
	}
}

// A non-durable node must not expose the admin route, and its healthz has
// no persist section.
func TestAdminCheckpointAbsentWithoutPersistence(t *testing.T) {
	srv := server.New(server.Config{K: 4, Arms: 2, D: 2, Alpha: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, srv, rng.New(1))
	ts := httptest.NewServer(NewNodeHandler(shuf, srv))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/admin/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("admin route on plain node: status %d", resp.StatusCode)
	}
}

// failingIngestor simulates a dead disk: the WAL cannot accept writes.
type failingIngestor struct{}

var errDisk = errors.New("disk on fire")

func (failingIngestor) SubmitEnvelope(transport.Envelope) error { return errDisk }
func (failingIngestor) SubmitTuples([]transport.Tuple) error    { return errDisk }
func (failingIngestor) Flush() error                            { return errDisk }

// An ingest failure must surface as a 503 with a Retry-After hint, never
// a silent ack: an unlogged tuple would be lost by the next crash despite
// the client believing it was delivered — but the condition is the node's
// fault and transient, so the client is told to retry, not blamed.
func TestIngestFailureIsNotAcked(t *testing.T) {
	srv := server.New(server.Config{K: 4, Arms: 2, D: 2, Alpha: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, srv, rng.New(1))
	ts := httptest.NewServer(NewNodeHandlerOpts(shuf, srv, NodeOptions{Ingest: failingIngestor{}}))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/shuffler/reports", transport.ContentTypeBinary,
		bytes.NewReader(batchBody([]transport.Tuple{{Code: 1, Action: 1, Reward: 1}})))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch with dead log: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("fail-closed 503 carries no Retry-After hint")
	}
	blob, _ := json.Marshal(transport.Envelope{Tuple: transport.Tuple{Code: 1, Action: 1, Reward: 1}})
	resp, err = http.Post(ts.URL+"/shuffler/report", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("report with dead log: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/shuffler/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("flush with dead log: status %d, want 503", resp.StatusCode)
	}
}
