package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/transport"
)

// blockingIngestor parks every submission until released, simulating a
// node whose ingest path is saturated.
type blockingIngestor struct {
	entered chan struct{} // one send per submission that started
	release chan struct{} // closed to let them all finish
}

func (b *blockingIngestor) wait() {
	b.entered <- struct{}{}
	<-b.release
}

func (b *blockingIngestor) SubmitEnvelope(transport.Envelope) error { b.wait(); return nil }
func (b *blockingIngestor) SubmitTuples([]transport.Tuple) error    { b.wait(); return nil }
func (b *blockingIngestor) Flush() error                            { return nil }

func newAdmissionNode(t *testing.T, opts NodeOptions) (*httptest.Server, *shuffler.Shuffler) {
	t.Helper()
	srv := server.New(server.Config{K: 8, Arms: 2, D: 2, Alpha: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, srv, rng.New(1))
	ts := httptest.NewServer(NewNodeHandlerOpts(shuf, srv, opts))
	t.Cleanup(ts.Close)
	return ts, shuf
}

func postReport(t *testing.T, url string, code int) *http.Response {
	t.Helper()
	blob, _ := json.Marshal(transport.Envelope{Tuple: transport.Tuple{Code: code, Action: 1, Reward: 1}})
	resp, err := http.Post(url+"/shuffler/report", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// A burst beyond MaxInFlight is shed with 429 + Retry-After while the
// admitted request is still executing, and capacity frees once it
// finishes.
func TestAdmissionShedsOverInFlightCap(t *testing.T) {
	ing := &blockingIngestor{entered: make(chan struct{}, 8), release: make(chan struct{})}
	ts, _ := newAdmissionNode(t, NodeOptions{
		Ingest:    ing,
		Admission: NewAdmission(AdmissionConfig{MaxInFlight: 1, RetryAfter: 3 * 1e9}),
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postReport(t, ts.URL, 1) // occupies the single slot until release
	}()
	<-ing.entered

	resp := postReport(t, ts.URL, 2)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap request: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("shed Retry-After = %q, want \"3\"", got)
	}

	close(ing.release)
	wg.Wait()
	if resp := postReport(t, ts.URL, 3); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-release request: status %d, want 202", resp.StatusCode)
	}
}

// A body whose declared length exceeds the in-flight bytes budget is shed
// at the door — the node never reads it.
func TestAdmissionShedsOverBytesCap(t *testing.T) {
	ts, _ := newAdmissionNode(t, NodeOptions{
		Admission: NewAdmission(AdmissionConfig{MaxInFlightBytes: 16}),
	})
	resp := postReport(t, ts.URL, 1) // the JSON envelope is well over 16 bytes
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget body: status %d, want 429", resp.StatusCode)
	}
	// The gate's counters are visible on every stats surface.
	var st ShufflerStats
	mustGetJSON(t, ts.URL+"/shuffler/stats", &st)
	if st.Overload == nil || st.Overload.Shed != 1 {
		t.Fatalf("shuffler stats overload = %+v, want shed=1", st.Overload)
	}
	var sst serverStatsPayload
	mustGetJSON(t, ts.URL+"/server/stats", &sst)
	if sst.Overload == nil || sst.Overload.Shed != 1 {
		t.Fatalf("server stats overload = %+v, want shed=1", sst.Overload)
	}
}

func mustGetJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// flakyIngestor fails until healed, then succeeds.
type flakyIngestor struct {
	mu     sync.Mutex
	broken bool
	ops    int
}

var errLogDown = errors.New("log down")

func (f *flakyIngestor) submit() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	if f.broken {
		return errLogDown
	}
	return nil
}

func (f *flakyIngestor) SubmitEnvelope(transport.Envelope) error { return f.submit() }
func (f *flakyIngestor) SubmitTuples([]transport.Tuple) error    { return f.submit() }
func (f *flakyIngestor) Flush() error                            { return f.submit() }

func (f *flakyIngestor) setBroken(b bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.broken = b
}

// The degrade-to-memory policy keeps accepting reports when the durable
// log fails — into the shuffler, with the Degraded flag raised on
// /healthz — and clears the flag once the log recovers.
func TestWALDegradePolicyAcceptsAndFlags(t *testing.T) {
	ing := &flakyIngestor{broken: true}
	ts, shuf := newAdmissionNode(t, NodeOptions{Ingest: ing, WALPolicy: WALDegrade})

	if resp := postReport(t, ts.URL, 1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("degraded report: status %d, want 202", resp.StatusCode)
	}
	if got := shuf.Stats().Received; got != 1 {
		t.Fatalf("shuffler received %d tuples, want the degraded report to land in memory", got)
	}

	var h Health
	mustGetJSON(t, ts.URL+"/healthz", &h) // degraded must still answer 200
	if h.Status != "degraded" {
		t.Fatalf("health status %q, want degraded", h.Status)
	}
	if h.Overload == nil || !h.Overload.Degraded || h.Overload.DegradedOps != 1 {
		t.Fatalf("health overload = %+v, want degraded with 1 degraded op", h.Overload)
	}

	// The log recovers: the next report is durable and the flag clears.
	ing.setBroken(false)
	if resp := postReport(t, ts.URL, 2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("recovered report: status %d, want 202", resp.StatusCode)
	}
	h = Health{}
	mustGetJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" || h.Overload == nil || h.Overload.Degraded {
		t.Fatalf("health after recovery = %q %+v, want ok with the flag down", h.Status, h.Overload)
	}
	// Lifetime counter keeps the incident visible after recovery.
	if h.Overload.DegradedOps != 1 {
		t.Fatalf("degraded_ops = %d after recovery, want the historical 1", h.Overload.DegradedOps)
	}
}

// Under fail-closed (the default) the same failure refuses the report.
func TestWALFailClosedRefuses(t *testing.T) {
	ing := &flakyIngestor{broken: true}
	ts, shuf := newAdmissionNode(t, NodeOptions{Ingest: ing})
	resp := postReport(t, ts.URL, 1)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fail-closed report: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("fail-closed 503 carries no Retry-After")
	}
	if got := shuf.Stats().Received; got != 0 {
		t.Fatalf("shuffler received %d tuples under fail-closed, want 0", got)
	}
}

func TestParseWALPolicy(t *testing.T) {
	if p, err := ParseWALPolicy("fail-closed"); err != nil || p != WALFailClosed {
		t.Fatalf("fail-closed = %v, %v", p, err)
	}
	if p, err := ParseWALPolicy(""); err != nil || p != WALFailClosed {
		t.Fatalf("empty = %v, %v", p, err)
	}
	if p, err := ParseWALPolicy("degrade"); err != nil || p != WALDegrade {
		t.Fatalf("degrade = %v, %v", p, err)
	}
	if _, err := ParseWALPolicy("yolo"); err == nil {
		t.Fatal("garbage policy accepted")
	}
}

// The pending-buffer occupancy rides on the shuffler stats route: it is
// the queue-depth signal an operator tunes admission caps against.
func TestShufflerStatsReportsPending(t *testing.T) {
	ts, _ := newAdmissionNode(t, NodeOptions{})
	for i := 0; i < 3; i++ {
		if resp := postReport(t, ts.URL, i); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("report %d: status %d", i, resp.StatusCode)
		}
	}
	var st ShufflerStats
	mustGetJSON(t, ts.URL+"/shuffler/stats", &st)
	if st.Pending != 3 {
		t.Fatalf("pending = %d, want the 3 buffered tuples", st.Pending)
	}
	if st.Overload != nil {
		t.Fatalf("unbounded node reports overload section %+v", st.Overload)
	}
}
