package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"p2b/internal/metrics"
	"p2b/internal/persist"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/topology"
	"p2b/internal/transport"
)

// newAnalyzer builds an analyzer-role node handler with peer routes and a
// metrics registry, returning the pieces tests poke at.
func newAnalyzer(t *testing.T, origin, token string) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, srv, rng.New(2))
	h := NewNodeHandlerOpts(shuf, srv, NodeOptions{
		Metrics:   metrics.NewRegistry(),
		Admission: NewAdmission(AdmissionConfig{MaxInFlight: 8}),
		Role:      string(topology.RoleAnalyzer),
		Peer:      &PeerOptions{Origin: origin, Token: token},
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return srv, ts
}

func peerBatch(n int) []transport.Tuple {
	out := make([]transport.Tuple, n)
	for i := range out {
		out[i] = transport.Tuple{Code: i % 8, Action: i % 4, Reward: float64(i % 2)}
	}
	return out
}

func TestPeerIngestOverWire(t *testing.T) {
	srv, ts := newAnalyzer(t, "analyzer-1", "s3cret")

	fwd, err := topology.NewForwarder(ts.URL, topology.ForwarderOptions{
		Origin: "relay-1", Epoch: 7, Token: "s3cret", RetryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd.Deliver(peerBatch(6))
	if st := fwd.Stats(); st.Batches != 1 || st.Duplicates != 0 {
		t.Fatalf("forward stats = %+v", st)
	}
	if st := srv.Stats(); st.TuplesIngested != 6 {
		t.Fatalf("analyzer ingested %d tuples, want 6", st.TuplesIngested)
	}

	// A second relay process resuming the same (origin, epoch) stream —
	// the WAL-tail re-forward scenario — acks duplicate, applies nothing.
	fwd2, err := topology.NewForwarder(ts.URL, topology.ForwarderOptions{
		Origin: "relay-1", Epoch: 7, Token: "s3cret", RetryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd2.Deliver(peerBatch(6))
	if st := fwd2.Stats(); st.Duplicates != 1 {
		t.Fatalf("resumed stream stats = %+v", st)
	}
	if st := srv.Stats(); st.TuplesIngested != 6 {
		t.Fatalf("duplicate folded in: %d tuples", st.TuplesIngested)
	}

	// Wrong token: 401, sticky (no retry storm), nothing applied.
	bad, err := topology.NewForwarder(ts.URL, topology.ForwarderOptions{
		Origin: "relay-2", Token: "wrong", MaxRetries: 3, RetryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	bad.Deliver(peerBatch(2))
	if st := bad.Stats(); st.Dropped != 1 || st.Retries != 0 {
		t.Fatalf("unauthorized stats = %+v", st)
	}
	if st := srv.Stats(); st.TuplesIngested != 6 {
		t.Fatalf("unauthorized batch folded in: %d tuples", st.TuplesIngested)
	}
}

func TestPeerIngestRejectsMalformedRequests(t *testing.T) {
	_, ts := newAnalyzer(t, "analyzer-1", "")

	post := func(headers map[string]string, ct string, body []byte) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/peer/ingest", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ct)
		for k, v := range headers {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	frames := transport.AppendMagic(nil)
	e := transport.Envelope{Tuple: transport.Tuple{Code: 1, Action: 1, Reward: 1}}
	frames = e.AppendFrame(frames)

	full := map[string]string{
		topology.OriginHeader: "relay-1",
		topology.EpochHeader:  "1",
		topology.SeqHeader:    "1",
	}
	if got := post(map[string]string{topology.EpochHeader: "1", topology.SeqHeader: "1"}, transport.ContentTypeBinary, frames); got != http.StatusBadRequest {
		t.Fatalf("missing origin: status %d, want 400", got)
	}
	if got := post(map[string]string{topology.OriginHeader: "relay-1", topology.EpochHeader: "x", topology.SeqHeader: "1"}, transport.ContentTypeBinary, frames); got != http.StatusBadRequest {
		t.Fatalf("bad epoch: status %d, want 400", got)
	}
	// A relay claiming the analyzer's own origin is a fleet misconfiguration.
	self := map[string]string{topology.OriginHeader: "analyzer-1", topology.EpochHeader: "1", topology.SeqHeader: "1"}
	if got := post(self, transport.ContentTypeBinary, frames); got != http.StatusBadRequest {
		t.Fatalf("self-origin: status %d, want 400", got)
	}
	// Peer batches are binary-only: the NDJSON fallback exists for agents,
	// not relays.
	if got := post(full, "application/x-ndjson", []byte("{}\n")); got != http.StatusUnsupportedMediaType {
		t.Fatalf("ndjson: status %d, want 415", got)
	}
	if got := post(full, transport.ContentTypeBinary, []byte("junk")); got != http.StatusBadRequest {
		t.Fatalf("garbage stream: status %d, want 400", got)
	}
	if got := post(full, transport.ContentTypeBinary, frames); got != http.StatusOK {
		t.Fatalf("well-formed batch: status %d, want 200", got)
	}
}

// postMerge sends one PeerUpdate and returns (status, ack.Applied).
func postMerge(t *testing.T, url string, upd topology.PeerUpdate) (int, bool) {
	t.Helper()
	blob, err := topology.AppendPeerUpdate(nil, upd)
	if err != nil {
		t.Fatal(err)
	}
	return postMergeBody(t, url, topology.ContentTypePeerState, blob)
}

// postMergeBody sends a raw /peer/merge body and returns (status,
// ack.Applied).
func postMergeBody(t *testing.T, url, contentType string, blob []byte) (int, bool) {
	t.Helper()
	resp, err := http.Post(url+"/peer/merge", contentType, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack topology.PeerAck
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, ack.Applied
}

func TestPeerMergeDoubleApplyRejectedOverWire(t *testing.T) {
	srv, ts := newAnalyzer(t, "analyzer-1", "")

	remote := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 2})
	remote.Deliver(peerBatch(12))
	upd := topology.PeerUpdate{Origin: "analyzer-2", Epoch: 9, Seq: 1, State: remote.ExportState()}

	status, applied := postMerge(t, ts.URL, upd)
	if status != http.StatusOK || !applied {
		t.Fatalf("first merge: status %d applied %v", status, applied)
	}
	before := srv.PeerStatus()

	// The double-applied push: same origin, same (epoch, seq). The guard
	// rejects it — applied=false — and the stored state does not change, so
	// the same data can never fold into the model twice.
	status, applied = postMerge(t, ts.URL, upd)
	if status != http.StatusOK || applied {
		t.Fatalf("double apply: status %d applied %v, want applied=false", status, applied)
	}
	after := srv.PeerStatus()
	if after.MergesRejected != before.MergesRejected+1 || after.MergesApplied != before.MergesApplied {
		t.Fatalf("counters before %+v after %+v", before, after)
	}

	// Self-origin and shape mismatches are 400s, not silent accepts.
	if status, _ := postMerge(t, ts.URL, topology.PeerUpdate{Origin: "analyzer-1", Epoch: 1, Seq: 1, State: remote.ExportState()}); status != http.StatusBadRequest {
		t.Fatalf("self-origin merge: status %d, want 400", status)
	}
	misshapen := server.New(server.Config{K: 4, Arms: 4, D: 3, Alpha: 1}).ExportState()
	if status, _ := postMerge(t, ts.URL, topology.PeerUpdate{Origin: "analyzer-3", Epoch: 1, Seq: 1, State: misshapen}); status != http.StatusBadRequest {
		t.Fatalf("misshapen merge: status %d, want 400", status)
	}

	// The merge route speaks only the binary encoding: the JSON body an
	// analyzer of an older version would push is 415, like a non-binary
	// relay batch on /peer/ingest.
	fresh := topology.PeerUpdate{Origin: "analyzer-4", Epoch: 1, Seq: 1, State: remote.ExportState()}
	asJSON, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := postMergeBody(t, ts.URL, "application/json", asJSON); status != http.StatusUnsupportedMediaType {
		t.Fatalf("JSON merge: status %d, want 415", status)
	}

	// Accumulators are finite by construction: NaN or ±Inf anywhere in the
	// state is corruption, refused whichever float it lands in.
	for name, poke := range map[string]func(ps *server.PersistedState, v float64){
		"alpha":      func(ps *server.PersistedState, v float64) { ps.Alpha = v },
		"cell count": func(ps *server.PersistedState, v float64) { ps.CellCount[5] = v },
		"cell sum":   func(ps *server.PersistedState, v float64) { ps.CellSum[len(ps.CellSum)-1] = v },
		"lin a":      func(ps *server.PersistedState, v float64) { ps.Lin.A[1][4] = v },
		"lin b":      func(ps *server.PersistedState, v float64) { ps.Lin.B[3][2] = v },
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			bad := remote.ExportState()
			poke(bad, v)
			if status, _ := postMerge(t, ts.URL, topology.PeerUpdate{Origin: "analyzer-4", Epoch: 1, Seq: 1, State: bad}); status != http.StatusBadRequest {
				t.Fatalf("%v in %s: status %d, want 400", v, name, status)
			}
		}
	}

	// Truncated and padded bodies are 400s too, and none of the refused
	// bodies above left a contribution behind.
	blob, err := topology.AppendPeerUpdate(nil, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := postMergeBody(t, ts.URL, topology.ContentTypePeerState, blob[:len(blob)-1]); status != http.StatusBadRequest {
		t.Fatalf("truncated merge: status %d, want 400", status)
	}
	if status, _ := postMergeBody(t, ts.URL, topology.ContentTypePeerState, append(blob, 0)); status != http.StatusBadRequest {
		t.Fatalf("merge with a trailing byte: status %d, want 400", status)
	}
	if _, _, ok := srv.PeerContribution("analyzer-4"); ok {
		t.Fatal("a refused merge body was stored")
	}
	if status, applied := postMergeBody(t, ts.URL, topology.ContentTypePeerState, blob); status != http.StatusOK || !applied {
		t.Fatalf("well-formed merge after the refusals: status %d applied %v", status, applied)
	}
}

func TestPeerStatusAndHealthzReportRoleAndPeers(t *testing.T) {
	srv := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, srv, rng.New(2))
	reg := metrics.NewRegistry()
	syncStatus := []topology.SyncStatus{{Target: "http://peer-a", Pushes: 3, LastSyncUnixNano: time.Now().UnixNano()}}
	h := NewNodeHandlerOpts(shuf, srv, NodeOptions{
		Metrics: reg,
		Role:    string(topology.RoleAnalyzer),
		Peer: &PeerOptions{
			Origin: "analyzer-1",
			Sync:   func() []topology.SyncStatus { return syncStatus },
		},
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	remote := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 2})
	remote.Deliver(peerBatch(8))
	upd := topology.PeerUpdate{Origin: "analyzer-2", Epoch: 9, Seq: 1, State: remote.ExportState()}
	if status, applied := postMerge(t, ts.URL, upd); status != http.StatusOK || !applied {
		t.Fatalf("merge: status %d applied %v", status, applied)
	}
	if status, applied := postMerge(t, ts.URL, upd); status != http.StatusOK || applied {
		t.Fatalf("repeat merge: status %d applied %v", status, applied)
	}

	var health struct {
		Role  string      `json:"role"`
		Peers *PeerHealth `json:"peers"`
	}
	mustGetJSON(t, ts.URL+"/healthz", &health)
	if health.Role != "analyzer" {
		t.Fatalf("healthz role = %q", health.Role)
	}
	if health.Peers == nil || health.Peers.MergesApplied != 1 || health.Peers.MergesRejected != 1 {
		t.Fatalf("healthz peers = %+v", health.Peers)
	}
	if len(health.Peers.Sync) != 1 || health.Peers.Sync[0].Target != "http://peer-a" {
		t.Fatalf("healthz sync = %+v", health.Peers.Sync)
	}
	if len(health.Peers.Contributions) != 1 || health.Peers.Contributions[0].Origin != "analyzer-2" {
		t.Fatalf("healthz contributions = %+v", health.Peers.Contributions)
	}

	var stats struct {
		Role  string      `json:"role"`
		Peers *PeerHealth `json:"peers"`
	}
	mustGetJSON(t, ts.URL+"/server/stats", &stats)
	if stats.Role != "analyzer" || stats.Peers == nil || stats.Peers.MergesApplied != 1 {
		t.Fatalf("server/stats role=%q peers=%+v", stats.Role, stats.Peers)
	}

	// No drift: the Prometheus families must quote the same counters the
	// JSON surfaces report.
	body, fams := scrape(t, ts)
	for name, want := range map[string]string{
		"p2b_peer_merges_applied_total":  "1",
		"p2b_peer_merges_rejected_total": "1",
		"p2b_peer_relay_batches_total":   "0",
		"p2b_peer_sync_pushes_total":     "3",
	} {
		if !fams[name] {
			t.Fatalf("family %s missing from /metrics:\n%s", name, body)
		}
		if !strings.Contains(body, fmt.Sprintf("%s %s", name, want)) {
			t.Fatalf("%s != %s in:\n%s", name, want, body)
		}
	}
	if !strings.Contains(body, "p2b_peer_sync_max_lag_seconds") {
		t.Fatalf("lag gauge missing:\n%s", body)
	}
}

func TestRelayHandlerEndToEnd(t *testing.T) {
	// Downstream analyzer.
	analyzerSrv, analyzerTS := newAnalyzer(t, "analyzer-1", "tok")

	// Relay: shuffler whose sink forwards to the analyzer.
	fwd, err := topology.NewForwarder(analyzerTS.URL, topology.ForwarderOptions{
		Origin: "relay-1", Token: "tok", RetryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, fwd, rng.New(3))
	reg := metrics.NewRegistry()
	relayTS := httptest.NewServer(NewRelayHandler(shuf, fwd, RelayOptions{
		Admission: NewAdmission(AdmissionConfig{MaxInFlight: 8}),
		Metrics:   reg,
		Shapes:    ModelShapes{K: 8, Arms: 4, D: 3},
	}))
	defer relayTS.Close()

	// Agents cannot tell a relay from a combined node: the same client
	// reports through the same shuffler surface.
	client := newTestClient(relayTS.URL)
	for i := 0; i < 8; i++ {
		if err := client.Report(transport.Envelope{Tuple: transport.Tuple{Code: i % 8, Action: i % 4, Reward: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := analyzerSrv.Stats(); st.TuplesIngested != 8 {
		t.Fatalf("analyzer ingested %d tuples, want 8", st.TuplesIngested)
	}

	// The relay's /healthz names its role, shapes and forward counters.
	var health Health
	mustGetJSON(t, relayTS.URL+"/healthz", &health)
	if health.Role != "relay" || health.Status != "ok" {
		t.Fatalf("relay healthz = %+v", health)
	}
	if health.Model.K != 8 || health.Model.Arms != 4 || health.Model.D != 3 {
		t.Fatalf("relay shapes = %+v (agent preflights would fail)", health.Model)
	}
	if health.Downstream != analyzerTS.URL || health.Forward.Batches != 2 || health.Forward.Tuples != 8 {
		t.Fatalf("relay forward = %+v", health)
	}

	body, fams := scrape(t, relayTS)
	for _, name := range []string{
		"p2b_forward_batches_total",
		"p2b_forward_tuples_total",
		"p2b_forward_duplicates_total",
		"p2b_forward_dropped_total",
		"p2b_shuffler_received_total",
		"p2b_http_requests_total",
	} {
		if !fams[name] {
			t.Fatalf("relay metrics missing %s:\n%s", name, body)
		}
	}
	if !strings.Contains(body, "p2b_forward_tuples_total 8") {
		t.Fatalf("forward tuple counter drifted:\n%s", body)
	}
}

// A duplicate /peer/ingest ack states the origin's guard seq — on the
// in-memory path and the durable one alike — while an applied ack stays
// exactly {"applied":true}.
func TestPeerIngestDuplicateAckStatesGuardSeq(t *testing.T) {
	_, mem := newAnalyzer(t, "analyzer-1", "")

	srv := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, srv, rng.New(2))
	m, err := persist.Open(t.TempDir(), shuf, srv, persist.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	durable := httptest.NewServer(NewNodeHandlerOpts(shuf, srv, NodeOptions{
		Ingest: m,
		Peer:   &PeerOptions{Origin: "analyzer-1", Deliver: m.DeliverPeer},
	}))
	t.Cleanup(durable.Close)

	body := transport.AppendTuples(nil, peerBatch(3))
	for name, ts := range map[string]*httptest.Server{"in-memory": mem, "durable": durable} {
		post := func(epoch, seq int) string {
			t.Helper()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/peer/ingest", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", transport.ContentTypeBinary)
			req.Header.Set(topology.OriginHeader, "relay-1")
			req.Header.Set(topology.EpochHeader, fmt.Sprint(epoch))
			req.Header.Set(topology.SeqHeader, fmt.Sprint(seq))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: (epoch %d, seq %d): status %d: %s", name, epoch, seq, resp.StatusCode, buf.Bytes())
			}
			return strings.TrimSpace(buf.String())
		}
		for _, step := range []struct {
			epoch, seq int
			want       string
		}{
			{7, 1, `{"applied":true}`},
			{7, 2, `{"applied":true}`},
			{7, 3, `{"applied":true}`},
			{7, 1, `{"applied":false,"seq":3}`}, // a replay: the mark covers two more
			{7, 3, `{"applied":false,"seq":3}`}, // a retry after a lost response
			{8, 1, `{"applied":true}`},          // a fresh epoch restarts the stream
			{8, 1, `{"applied":false,"seq":1}`},
		} {
			if got := post(step.epoch, step.seq); got != step.want {
				t.Errorf("%s: (epoch %d, seq %d) acked %s, want %s", name, step.epoch, step.seq, got, step.want)
			}
		}
	}
}
