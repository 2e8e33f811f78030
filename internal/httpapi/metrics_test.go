package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"p2b/internal/metrics"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/transport"
)

// scrape fetches /metrics and returns the body after validating it as
// Prometheus text exposition.
func scrape(t *testing.T, ts *httptest.Server) (string, map[string]bool) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != metrics.ContentType {
		t.Fatalf("Content-Type = %q, want %q", got, metrics.ContentType)
	}
	var buf bytes.Buffer
	fams, err := metrics.CheckExposition(io.TeeReader(resp.Body, &buf))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, buf.String())
	}
	return buf.String(), fams
}

func TestNodeMetricsEndToEnd(t *testing.T) {
	srv := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 2, Threshold: 0}, srv, rng.New(2))
	reg := metrics.NewRegistry()
	h := NewNodeHandlerOpts(shuf, srv, NodeOptions{
		Admission: NewAdmission(AdmissionConfig{MaxInFlight: 8}),
		Metrics:   reg,
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	client := newTestClient(ts.URL)
	for i := 0; i < 4; i++ {
		if err := client.Report(transport.Envelope{
			Meta:  transport.Metadata{DeviceID: "dev"},
			Tuple: transport.Tuple{Code: 2, Action: 1, Reward: 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	fm, err := client.FetchModel(ModelKindTabular, "")
	if err != nil {
		t.Fatal(err)
	}
	if fm2, err := client.FetchModel(ModelKindTabular, fm.ETag); err != nil {
		t.Fatal(err)
	} else if !fm2.NotModified {
		t.Fatal("second conditional fetch should be 304")
	}
	mustGetJSON(t, ts.URL+"/healthz", new(Health))
	// A request the node rejects must land in a non-2xx class counter.
	resp, err := http.Post(ts.URL+"/shuffler/report", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed report: status %d, want 400", resp.StatusCode)
	}

	body, fams := scrape(t, ts)
	for _, want := range []string{
		"p2b_http_requests_total",
		"p2b_http_request_duration_seconds",
		"p2b_http_request_body_bytes",
		"p2b_shuffler_received_total",
		"p2b_shuffler_forwarded_total",
		"p2b_shuffler_batch_size",
		"p2b_shuffler_cuts_total",
		"p2b_server_tuples_delivered_total",
		"p2b_model_version",
		"p2b_snapshot_cache_hits_total",
		"p2b_model_payload_hits_total",
		"p2b_model_not_modified_total",
		"p2b_ingest_admitted_total",
		"p2b_ingest_shed_total",
	} {
		if !fams[want] {
			t.Errorf("family %s missing from exposition", want)
		}
	}
	for _, want := range []string{
		`p2b_http_requests_total{route="report",class="2xx"} 4`,
		`p2b_http_requests_total{route="report",class="4xx"} 1`,
		`p2b_http_requests_total{route="healthz",class="2xx"} 1`,
		`p2b_shuffler_received_total 4`,
		`p2b_shuffler_forwarded_total 4`,
		`p2b_shuffler_cuts_total{reason="size"} 2`,
		`p2b_model_not_modified_total 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing sample %q", want)
		}
	}

	// No-drift check: the overload counters /metrics reports must be the
	// same numbers /healthz serializes, because they read the same source.
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health Health
	err = json.NewDecoder(hres.Body).Decode(&health)
	hres.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health.Overload == nil {
		t.Fatal("bounded node must report overload on /healthz")
	}
	body2, _ := scrape(t, ts)
	if want := `p2b_ingest_admitted_total ` + strconv.FormatInt(health.Overload.Admitted, 10); !strings.Contains(body2, want) {
		t.Errorf("admitted drift: /metrics lacks %q (healthz says %d)", want, health.Overload.Admitted)
	}
	if want := `p2b_ingest_shed_total ` + strconv.FormatInt(health.Overload.Shed, 10); !strings.Contains(body2, want) {
		t.Errorf("shed drift: /metrics lacks %q (healthz says %d)", want, health.Overload.Shed)
	}
}

// TestNodeWithoutRegistryHasNoMetricsRoute pins the opt-in: a node built
// without NodeOptions.Metrics serves 404 on /metrics and every handler runs
// unwrapped (the nil-receiver identity path).
func TestNodeWithoutRegistryHasNoMetricsRoute(t *testing.T) {
	srv := server.New(server.Config{K: 4, Arms: 3, D: 2, Alpha: 1, Seed: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, srv, rng.New(2))
	ts := httptest.NewServer(NewNodeHandler(shuf, srv))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("uninstrumented node: GET /metrics status %d, want 404", resp.StatusCode)
	}
	if err := newTestClient(ts.URL).Report(transport.Envelope{
		Tuple: transport.Tuple{Code: 1, Action: 1, Reward: 1},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestStatusRecorderUnwrap pins the contract the admission gate's
// read-deadline path depends on: the recorder must expose the underlying
// writer to http.NewResponseController.
func TestStatusRecorderUnwrap(t *testing.T) {
	rec := httptest.NewRecorder()
	sr := &statusRecorder{ResponseWriter: rec}
	if sr.Unwrap() != http.ResponseWriter(rec) {
		t.Fatal("Unwrap must return the wrapped writer")
	}
	sr.WriteHeader(http.StatusTeapot)
	sr.WriteHeader(http.StatusOK) // second write must not overwrite
	if sr.status != http.StatusTeapot {
		t.Fatalf("status = %d, want first WriteHeader to stick", sr.status)
	}
}

func TestClassIndex(t *testing.T) {
	cases := map[int]string{
		200: "2xx", 202: "2xx", 304: "3xx", 400: "4xx", 404: "4xx",
		429: "429", 500: "5xx", 503: "503",
	}
	for status, want := range cases {
		if got := statusClasses[classIndex(status)]; got != want {
			t.Errorf("classIndex(%d) = %s, want %s", status, got, want)
		}
	}
}
