package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/transport"
)

func modelStack(t *testing.T) (*testClient, *server.Server, func()) {
	t.Helper()
	srv := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 1})
	ts := httptest.NewServer(newServerHandler(srv).routes())
	return &testClient{ServerURL: ts.URL}, srv, ts.Close
}

func deliver(srv *server.Server, n int) {
	batch := make([]transport.Tuple, n)
	for i := range batch {
		batch[i] = transport.Tuple{Code: i % 8, Action: i % 4, Reward: 1}
	}
	srv.Deliver(batch)
}

func TestModelETagRoundTrip(t *testing.T) {
	client, srv, cleanup := modelStack(t)
	defer cleanup()
	deliver(srv, 5)

	first, err := client.FetchModel(ModelKindTabular, "")
	if err != nil {
		t.Fatal(err)
	}
	if first.NotModified || first.Tabular == nil {
		t.Fatalf("first fetch should carry a model: %+v", first)
	}
	if first.ETag == "" {
		t.Fatal("no ETag on model response")
	}
	if first.Version != srv.ModelVersion() {
		t.Fatalf("fetched version %d, server at %d", first.Version, srv.ModelVersion())
	}

	// Unchanged model: the conditional fetch must come back 304 with no body.
	again, err := client.FetchModel(ModelKindTabular, first.ETag)
	if err != nil {
		t.Fatal(err)
	}
	if !again.NotModified || again.Tabular != nil {
		t.Fatalf("unchanged model not answered with 304: %+v", again)
	}

	// Ingestion bumps the version: the same ETag must now miss.
	deliver(srv, 3)
	refreshed, err := client.FetchModel(ModelKindTabular, first.ETag)
	if err != nil {
		t.Fatal(err)
	}
	if refreshed.NotModified {
		t.Fatal("stale ETag served 304 after ingestion")
	}
	if refreshed.Version <= first.Version {
		t.Fatalf("version did not advance: %d -> %d", first.Version, refreshed.Version)
	}
	if refreshed.ETag == first.ETag {
		t.Fatal("ETag unchanged across a model mutation")
	}
}

func TestModelVersionBumpsOnIngest(t *testing.T) {
	_, srv, cleanup := modelStack(t)
	defer cleanup()
	v0 := srv.ModelVersion()
	deliver(srv, 1)
	v1 := srv.ModelVersion()
	if v1 <= v0 {
		t.Fatalf("Deliver did not bump the version: %d -> %d", v0, v1)
	}
	if err := srv.IngestRaw(transport.RawTuple{Context: []float64{1, 0, 0}, Action: 0, Reward: 1}); err != nil {
		t.Fatal(err)
	}
	if v2 := srv.ModelVersion(); v2 <= v1 {
		t.Fatalf("IngestRaw did not bump the version: %d -> %d", v1, v2)
	}
}

func TestModelContentNegotiation(t *testing.T) {
	client, srv, cleanup := modelStack(t)
	defer cleanup()
	deliver(srv, 4)

	get := func(accept string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, client.ServerURL+"/model?kind=tabular", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Binary when asked for, with a decodable P2BM body.
	resp := get(transport.ContentTypeModel)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != transport.ContentTypeModel {
		t.Fatalf("binary Accept answered with %q", ct)
	}
	version, tab, _, err := transport.DecodeModel(body)
	if err != nil {
		t.Fatal(err)
	}
	if tab == nil || tab.K != 8 || tab.Arms != 4 {
		t.Fatalf("binary body decoded to %+v", tab)
	}
	if version != srv.ModelVersion() {
		t.Fatalf("binary version %d, server at %d", version, srv.ModelVersion())
	}

	// JSON for everyone else: clients that send no Accept at all, and
	// clients that explicitly refuse the binary type with q=0 (RFC 9110:
	// q=0 means "not acceptable").
	for _, accept := range []string{
		"", "application/json", "text/html, */*",
		"application/json, application/x-p2b-model;q=0",
		"application/x-p2b-model;q=0.0",
	} {
		resp := get(accept)
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("Accept %q answered with %q", accept, ct)
		}
		if !strings.Contains(string(blob), `"count"`) {
			t.Fatalf("Accept %q body does not look like a tabular state: %s", accept, blob[:min(64, len(blob))])
		}
	}

	// A strong ETag names one exact representation: the two encodings must
	// carry distinct tags (and Vary: Accept) so a shared cache can never
	// serve P2BM bytes to a JSON client or vice versa.
	bin, json := get(transport.ContentTypeModel), get("application/json")
	bin.Body.Close()
	json.Body.Close()
	if bin.Header.Get("ETag") == json.Header.Get("ETag") {
		t.Fatal("binary and JSON representations share a strong ETag")
	}
	for _, resp := range []*http.Response{bin, json} {
		if resp.Header.Get("Vary") != "Accept" {
			t.Fatal("model route does not declare Vary: Accept")
		}
	}
	// A JSON client revalidating with the binary representation's tag must
	// get a payload, not a 304.
	req, err := http.NewRequest(http.MethodGet, client.ServerURL+"/model?kind=tabular", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	req.Header.Set("If-None-Match", bin.Header.Get("ETag"))
	cross, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cross.Body.Close()
	if cross.StatusCode == http.StatusNotModified {
		t.Fatal("cross-representation ETag validated as a match")
	}
}

func TestModelKindsAndErrors(t *testing.T) {
	client, srv, cleanup := modelStack(t)
	defer cleanup()
	deliver(srv, 4)

	// linucb kind serves a linear model.
	lin, err := client.FetchModel(ModelKindLinUCB, "")
	if err != nil {
		t.Fatal(err)
	}
	if lin.Linear == nil || lin.Linear.D != 3 {
		t.Fatalf("linucb kind returned %+v", lin)
	}
	// Unknown kinds are 400; the node serves no centroid model (only the
	// in-process Loopback does), so centroid is just another unknown kind.
	for _, kind := range []string{"bogus", "centroid"} {
		if _, err := client.FetchModel(kind, ""); err == nil || !strings.Contains(err.Error(), "400") {
			t.Fatalf("kind %q: %v", kind, err)
		}
	}
}

func TestModelRoutesRejectNonGET(t *testing.T) {
	client, _, cleanup := modelStack(t)
	defer cleanup()
	for _, path := range []string{"/model", "/stats"} {
		resp, err := http.Post(client.ServerURL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s answered %d, want 405", path, resp.StatusCode)
		}
	}
}

func TestETagMatching(t *testing.T) {
	etag := modelETag("tabular", 0xabc, 9, true)
	cases := []struct {
		header string
		want   bool
	}{
		{etag, true},
		{"*", true},
		{`"other", ` + etag, true},
		{"W/" + etag, true},
		{`"p2b-tabular-eabc-v8-bin"`, false},
		{modelETag("tabular", 0xabc, 9, false), false}, // other representation
		{modelETag("tabular", 0xdef, 9, true), false},  // other boot epoch
		{"", false},
	}
	for _, c := range cases {
		if got := etagMatches(c.header, etag); got != c.want {
			t.Fatalf("etagMatches(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// TestRevalidationNeverBuildsSnapshot pins the 304 fast path: an
// If-None-Match that matches the current (epoch, version) must be answered
// from the version counters alone — no snapshot merge, no encode — even on
// a handler whose payload cache has never been warmed.
func TestRevalidationNeverBuildsSnapshot(t *testing.T) {
	srv := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 1})
	deliver(srv, 5)
	h := newServerHandler(srv)
	ts := httptest.NewServer(h.routes())
	defer ts.Close()

	etag := modelETag(ModelKindTabular, srv.ModelEpoch(), srv.ModelVersion(), true)
	for i := 0; i < 3; i++ {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/model?kind=tabular", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", transport.ContentTypeModel)
		req.Header.Set("If-None-Match", etag)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("revalidation %d answered %d, want 304", i, resp.StatusCode)
		}
	}
	if st := srv.Stats(); st.SnapshotBuilds != 0 || st.Snapshots != 0 {
		t.Fatalf("revalidations built snapshots: %+v", st)
	}
	if rs := h.ReadStats(); rs.NotModified != 3 || rs.PayloadBuilds != 0 {
		t.Fatalf("read stats after 304s: %+v", rs)
	}
}

// TestPayloadCacheSharesEncodedBytes pins the steady-state body path: one
// encode per (kind, version, representation), every later GET served from
// the cached bytes — including the Accept-less curl the CI scripts
// compare, which gets exactly json.Marshal(snapshot) plus a newline (what
// the deleted /model/tabular route served) — and the deleted routes 404.
func TestPayloadCacheSharesEncodedBytes(t *testing.T) {
	srv := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 1})
	deliver(srv, 5)
	h := newServerHandler(srv)
	ts := httptest.NewServer(h.routes())
	defer ts.Close()

	get := func(path, accept string) []byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	a := get("/model?kind=tabular", "application/json")
	b := get("/model?kind=tabular", "application/json")
	if string(a) != string(b) {
		t.Fatal("two GETs at one version returned different bytes")
	}
	curl := get("/model?kind=tabular", "")
	if string(curl) != string(a) {
		t.Fatalf("Accept-less bytes differ from the cached JSON payload:\n%s\nvs\n%s", curl, a)
	}
	tab, _ := srv.TabularModel()
	want, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	if string(curl) != string(want)+"\n" {
		t.Fatalf("?kind=tabular JSON is not the snapshot's canonical encoding:\n%s\nvs\n%s", curl, want)
	}
	for _, gone := range []string{"/model/tabular", "/model/linucb"} {
		resp, err := http.Get(ts.URL + gone)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s answered %d, want 404: the legacy route is deleted", gone, resp.StatusCode)
		}
	}
	rs := h.ReadStats()
	if rs.PayloadBuilds != 1 {
		t.Fatalf("payload builds = %d, want 1 (one encode for three GETs)", rs.PayloadBuilds)
	}
	if rs.PayloadHits != 2 {
		t.Fatalf("payload hits = %d, want 2", rs.PayloadHits)
	}
	// A version bump rebuilds exactly once more.
	deliver(srv, 1)
	_ = get("/model?kind=tabular", "application/json")
	if rs := h.ReadStats(); rs.PayloadBuilds != 2 {
		t.Fatalf("payload builds after bump = %d, want 2", rs.PayloadBuilds)
	}
	// The binary representation has its own slot.
	_ = get("/model?kind=tabular", transport.ContentTypeModel)
	if rs := h.ReadStats(); rs.PayloadBuilds != 3 {
		t.Fatalf("payload builds after binary fetch = %d, want 3", rs.PayloadBuilds)
	}
}

// TestServerStatsExposeReadPath pins the /server/stats shape: ingestion
// counters plus snapshot-cache and payload-cache health.
func TestServerStatsExposeReadPath(t *testing.T) {
	srv := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 1})
	deliver(srv, 5)
	ts := httptest.NewServer(newServerHandler(srv).routes())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/model?kind=tabular")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		TuplesIngested int64          `json:"TuplesIngested"`
		SnapshotHits   int64          `json:"SnapshotHits"`
		SnapshotBuilds int64          `json:"SnapshotBuilds"`
		ModelReads     ModelReadStats `json:"model_reads"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.TuplesIngested != 5 {
		t.Fatalf("TuplesIngested = %d, want 5", stats.TuplesIngested)
	}
	if stats.SnapshotBuilds != 1 {
		t.Fatalf("SnapshotBuilds = %d, want 1", stats.SnapshotBuilds)
	}
	if stats.ModelReads.PayloadBuilds != 1 || stats.ModelReads.PayloadHits != 2 {
		t.Fatalf("model_reads = %+v, want 1 build + 2 hits", stats.ModelReads)
	}
}

// TestHealthzExposesReadPath pins the /healthz snapshot + payload sections
// a fleet operator watches.
func TestHealthzExposesReadPath(t *testing.T) {
	srv := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, srv, rng.New(2))
	deliver(srv, 5)
	ts := httptest.NewServer(NewNodeHandler(shuf, srv))
	defer ts.Close()

	client := newTestClient(ts.URL)
	for i := 0; i < 2; i++ {
		if _, err := client.FetchModel(ModelKindTabular, ""); err != nil {
			t.Fatal(err)
		}
	}
	var h Health
	mustGetJSON(t, ts.URL+"/healthz", &h)
	// The second fetch is a payload-cache hit: it never reaches the
	// snapshot cache at all, so snapshot builds stay at one and hits at
	// zero — the encoded-bytes layer shields the snapshot layer entirely.
	if h.Snapshots.Builds != 1 || h.Snapshots.Hits != 0 {
		t.Fatalf("healthz snapshots = %+v, want 1 build + 0 hits", h.Snapshots)
	}
	if h.ModelReads.PayloadBuilds != 1 || h.ModelReads.PayloadHits != 1 {
		t.Fatalf("healthz model_reads = %+v, want 1 build + 1 hit", h.ModelReads)
	}
}

// TestModelGetCachedPathAllocs pins the O(1)-allocation contract of the
// steady-state read path: a GET at an unchanged version must cost a
// handful of constant allocations (header plumbing), never O(model size).
func TestModelGetCachedPathAllocs(t *testing.T) {
	srv := server.New(server.Config{K: 256, Arms: 8, D: 3, Alpha: 1, Seed: 1})
	deliver(srv, 64)
	h := newServerHandler(srv).routes()

	req := httptest.NewRequest(http.MethodGet, "/model?kind=tabular", nil)
	req.Header.Set("Accept", transport.ContentTypeModel)
	w := &benchRW{h: make(http.Header)}
	h.ServeHTTP(w, req) // warm the payload cache
	if n := testing.AllocsPerRun(100, func() {
		w.reset()
		h.ServeHTTP(w, req)
	}); n > 8 {
		t.Errorf("cached model GET allocates %v times per request, want <= 8", n)
	}

	// The 304 path is leaner still.
	etag := modelETag(ModelKindTabular, srv.ModelEpoch(), srv.ModelVersion(), true)
	req.Header.Set("If-None-Match", etag)
	if n := testing.AllocsPerRun(100, func() {
		w.reset()
		h.ServeHTTP(w, req)
	}); n > 6 {
		t.Errorf("304 revalidation allocates %v times per request, want <= 6", n)
	}
}

// TestConcurrentModelGetsAndIngest hammers the read path from many
// goroutines while Deliver and IngestRaw mutate the model — the -race
// referee for the shared-snapshot and payload-cache publication.
func TestConcurrentModelGetsAndIngest(t *testing.T) {
	srv := server.New(server.Config{K: 32, Arms: 4, D: 3, Alpha: 1, Seed: 1})
	deliver(srv, 8)
	h := newServerHandler(srv).routes()

	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				srv.Deliver([]transport.Tuple{{Code: (w*rounds + i) % 32, Action: i % 4, Reward: 0.5}})
				if err := srv.IngestRaw(transport.RawTuple{Context: []float64{1, 0, 0}, Action: i % 4, Reward: 0.5}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	kinds := []string{ModelKindTabular, ModelKindLinUCB}
	accepts := []string{transport.ContentTypeModel, "application/json"}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			etag := ""
			for i := 0; i < rounds; i++ {
				req := httptest.NewRequest(http.MethodGet, "/model?kind="+kinds[(g+i)%2], nil)
				req.Header.Set("Accept", accepts[g%2])
				if etag != "" && i%3 == 0 {
					req.Header.Set("If-None-Match", etag)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK && rec.Code != http.StatusNotModified {
					t.Errorf("GET answered %d", rec.Code)
					return
				}
				etag = rec.Header().Get("ETag")
			}
		}(g)
	}
	wg.Wait()
}

// TestAcceptsBinaryModelCaseInsensitive pins RFC 9110 §8.3.1: media types
// compare case-insensitively, so the fast paths in acceptsBinaryModel must
// not downgrade oddly-cased binary Accepts to JSON.
func TestAcceptsBinaryModelCaseInsensitive(t *testing.T) {
	cases := []struct {
		accept string
		want   bool
	}{
		{"", false},
		{transport.ContentTypeModel, true},
		{"Application/X-P2B-Model", true},
		{"APPLICATION/X-P2B-MODEL;q=1", true},
		{"application/json", false},
		{"Application/X-P2B-Model;q=0", false},
		{"text/html, Application/X-P2B-Model", true},
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodGet, "/model", nil)
		req.Header.Set("Accept", c.accept)
		if got := acceptsBinaryModel(req); got != c.want {
			t.Errorf("acceptsBinaryModel(%q) = %v, want %v", c.accept, got, c.want)
		}
	}
}
