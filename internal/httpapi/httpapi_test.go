package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"p2b/internal/bandit"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/transport"
)

// testClient is this package's stand-in for a device. The SDK cannot be
// imported here (agent imports httpapi), so the route tests speak plain
// net/http, the way curl does.
type testClient struct{ ShufflerURL, ServerURL string }

func newTestClient(nodeURL string) *testClient {
	return &testClient{ShufflerURL: nodeURL + "/shuffler", ServerURL: nodeURL + "/server"}
}

func (c *testClient) post(url string, v any, want int) error {
	var body io.Reader
	if v != nil {
		blob, _ := json.Marshal(v) // plain structs of finite numbers and strings
		body = bytes.NewReader(blob)
	}
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("post %s: status %d: %s", url, resp.StatusCode, msg)
	}
	return nil
}

func (c *testClient) Report(e transport.Envelope) error {
	return c.post(c.ShufflerURL+"/report", e, http.StatusAccepted)
}
func (c *testClient) Flush() error { return c.post(c.ShufflerURL+"/flush", nil, http.StatusNoContent) }
func (c *testClient) SendRaw(t transport.RawTuple) error {
	return c.post(c.ServerURL+"/raw", t, http.StatusAccepted)
}

// fetchedModel is one decoded GET /server/model response.
type fetchedModel struct {
	NotModified bool
	ETag        string
	Version     uint64
	Tabular     *bandit.TabularState
	Linear      *bandit.LinUCBState
}

// FetchModel issues one conditional GET of the binary model representation.
func (c *testClient) FetchModel(kind, ifNoneMatch string) (*fetchedModel, error) {
	req, err := http.NewRequest(http.MethodGet, c.ServerURL+"/model?kind="+kind, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", transport.ContentTypeModel)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	fm := &fetchedModel{ETag: resp.Header.Get("ETag"), NotModified: resp.StatusCode == http.StatusNotModified}
	switch {
	case fm.NotModified:
	case resp.StatusCode != http.StatusOK:
		err = fmt.Errorf("get %s: status %d: %s", req.URL, resp.StatusCode, body)
	default:
		fm.Version, fm.Tabular, fm.Linear, err = transport.DecodeModel(body)
	}
	return fm, err
}

func newStack(t *testing.T, threshold int) (*testClient, *server.Server, *shuffler.Shuffler, func()) {
	t.Helper()
	srv := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: threshold}, srv, rng.New(2))
	ts := httptest.NewServer(NewNodeHandler(shuf, srv))
	return newTestClient(ts.URL), srv, shuf, ts.Close
}

func TestReportFlowsThroughToServer(t *testing.T) {
	client, srv, _, cleanup := newStack(t, 0)
	defer cleanup()
	for i := 0; i < 4; i++ {
		err := client.Report(transport.Envelope{
			Meta:  transport.Metadata{DeviceID: "dev"},
			Tuple: transport.Tuple{Code: 2, Action: 1, Reward: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Batch size 4: the batch must have flushed to the server.
	if st := srv.Stats(); st.TuplesIngested != 4 {
		t.Fatalf("server ingested %d, want 4", st.TuplesIngested)
	}
}

func TestFlushEndpoint(t *testing.T) {
	client, srv, shuf, cleanup := newStack(t, 0)
	defer cleanup()
	if err := client.Report(transport.Envelope{Tuple: transport.Tuple{Code: 1, Action: 0, Reward: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if shuf.Pending() != 1 {
		t.Fatalf("pending %d", shuf.Pending())
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.TuplesIngested != 1 {
		t.Fatalf("flush did not reach server: %+v", st)
	}
}

func TestRemoteAddrIsStampedThenStripped(t *testing.T) {
	// An envelope with no Addr gets the connection's RemoteAddr stamped by
	// the handler — and the shuffler must still strip it before the server.
	client, srv, _, cleanup := newStack(t, 0)
	defer cleanup()
	for i := 0; i < 4; i++ {
		if err := client.Report(transport.Envelope{Tuple: transport.Tuple{Code: 1, Action: 0, Reward: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	// The server's view is only model state; the tabular snapshot carries
	// no strings at all. This is a type-level guarantee; assert the stats
	// flowed.
	if st := srv.Stats(); st.TuplesIngested != 4 {
		t.Fatalf("ingested %d", st.TuplesIngested)
	}
}

// fetchTabular reads the node's current tabular model.
func fetchTabular(t *testing.T, c *testClient) *bandit.TabularState {
	t.Helper()
	fm, err := c.FetchModel(ModelKindTabular, "")
	if err != nil {
		t.Fatal(err)
	}
	return fm.Tabular
}

func TestFetchTabularModel(t *testing.T) {
	client, srv, _, cleanup := newStack(t, 0)
	defer cleanup()
	srv.Deliver([]transport.Tuple{{Code: 3, Action: 2, Reward: 1}})
	state := fetchTabular(t, client)
	if state.K != 8 || state.Arms != 4 {
		t.Fatalf("state shape %dx%d", state.K, state.Arms)
	}
	if state.Count[3*4+2] != 1 {
		t.Fatal("delivered tuple missing from snapshot")
	}
}

func TestFetchLinUCBModel(t *testing.T) {
	client, _, _, cleanup := newStack(t, 0)
	defer cleanup()
	fm, err := client.FetchModel(ModelKindLinUCB, "")
	if err != nil {
		t.Fatal(err)
	}
	state := fm.Linear
	if state.D != 3 || state.Arms != 4 {
		t.Fatalf("state shape d=%d arms=%d", state.D, state.Arms)
	}
}

func TestSendRaw(t *testing.T) {
	client, srv, _, cleanup := newStack(t, 0)
	defer cleanup()
	err := client.SendRaw(transport.RawTuple{Context: []float64{0.2, 0.3, 0.5}, Action: 1, Reward: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.RawIngested != 1 {
		t.Fatalf("raw ingested %d", st.RawIngested)
	}
}

func TestSendRawRejectsBadTuple(t *testing.T) {
	client, _, _, cleanup := newStack(t, 0)
	defer cleanup()
	err := client.SendRaw(transport.RawTuple{Context: []float64{0.5}, Action: 1, Reward: 1})
	if err == nil {
		t.Fatal("bad raw tuple accepted")
	}
	if !strings.Contains(err.Error(), "400") {
		t.Fatalf("expected 400 in error, got %v", err)
	}
}

func TestBadJSONRejected(t *testing.T) {
	client, _, _, cleanup := newStack(t, 0)
	defer cleanup()
	resp, err := http.Post(client.ShufflerURL+"/report", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestUnknownFieldsRejected(t *testing.T) {
	client, _, _, cleanup := newStack(t, 0)
	defer cleanup()
	resp, err := http.Post(client.ShufflerURL+"/report", "application/json",
		strings.NewReader(`{"tuple":{"code":1},"bogus":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	client, _, _, cleanup := newStack(t, 0)
	defer cleanup()
	resp, err := http.Get(client.ShufflerURL + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /report status %d, want 405", resp.StatusCode)
	}
}

func TestStatsEndpoints(t *testing.T) {
	client, _, _, cleanup := newStack(t, 0)
	defer cleanup()
	for _, url := range []string{client.ShufflerURL + "/stats", client.ServerURL + "/stats"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status %d", url, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type %q", ct)
		}
		resp.Body.Close()
	}
}

func TestNodeHandlerMountsBothSurfaces(t *testing.T) {
	srv := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, srv, rng.New(2))
	ts := httptest.NewServer(NewNodeHandler(shuf, srv))
	defer ts.Close()

	// Health probe.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// The node client routes to the prefixed surfaces.
	client := newTestClient(ts.URL)
	for i := 0; i < 4; i++ {
		err := client.Report(transport.Envelope{Tuple: transport.Tuple{Code: 1, Action: 2, Reward: 1}})
		if err != nil {
			t.Fatal(err)
		}
	}
	state := fetchTabular(t, client)
	if state.Count[1*4+2] != 4 {
		t.Fatalf("tuples did not reach the model through the node: %v", state.Count[1*4+2])
	}
}

func TestNodeFleetRound(t *testing.T) {
	// A miniature p2bagent fleet: devices fetch the model, act, report.
	srv := server.New(server.Config{K: 4, Arms: 3, D: 2, Alpha: 1, Seed: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 16, Threshold: 2}, srv, rng.New(3))
	ts := httptest.NewServer(NewNodeHandler(shuf, srv))
	defer ts.Close()
	client := newTestClient(ts.URL)

	for u := 0; u < 64; u++ {
		state := fetchTabular(t, client)
		if state.K != 4 || state.Arms != 3 {
			t.Fatalf("model shape %dx%d", state.K, state.Arms)
		}
		// Every device reports its (fixed) favourite code and action.
		err := client.Report(transport.Envelope{
			Meta:  transport.Metadata{DeviceID: "d"},
			Tuple: transport.Tuple{Code: u % 2, Action: 1, Reward: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.TuplesIngested != 64 {
		t.Fatalf("ingested %d, want 64", st.TuplesIngested)
	}
}

func TestEndToEndPrivatePipelineOverHTTP(t *testing.T) {
	// A miniature P2B round over real HTTP: agents report encoded tuples,
	// the shuffler thresholds them, the server aggregates, and a new agent
	// warm-starts from the fetched model.
	client, _, _, cleanup := newStack(t, 2)
	defer cleanup()

	// 8 agents report code 5 / action 1 / reward 1 (they all loved it).
	for i := 0; i < 8; i++ {
		err := client.Report(transport.Envelope{
			Meta:  transport.Metadata{DeviceID: "dev"},
			Tuple: transport.Tuple{Code: 5, Action: 1, Reward: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	state := fetchTabular(t, client)
	// The new agent should prefer action 1 at code 5.
	best, bestVal := -1, -1.0
	for a := 0; a < state.Arms; a++ {
		i := 5*state.Arms + a
		mean := state.Sum[i] / (1 + state.Count[i])
		if mean > bestVal {
			best, bestVal = a, mean
		}
	}
	if best != 1 {
		t.Fatalf("warm-started preference is arm %d, want 1", best)
	}
}
