// The SDK's HTTPTransport against this package's real handlers: how the
// node's answers (202, 429 + Retry-After, 5xx, permanent 4xx) drive the
// client's batching, retry and breaker machinery. Package httpapi cannot
// import the SDK (agent imports httpapi), so these live in the external
// test package.
package httpapi_test

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"p2b/agent"
	"p2b/internal/httpapi"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/transport"
)

var oneReport = agent.Envelope{Tuple: transport.Tuple{Code: 1, Action: 1, Reward: 1}}

// newSDKNode serves a real node handler behind wrap (nil = unwrapped), the
// hook the tests use to inject faults on the batch route.
func newSDKNode(t *testing.T, wrap func(inner http.Handler) http.Handler) (string, *server.Server, *shuffler.Shuffler) {
	t.Helper()
	srv := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, srv, rng.New(2))
	h := httpapi.NewNodeHandler(shuf, srv)
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL, srv, shuf
}

// failFirst answers the first n batch POSTs with status (plus an optional
// Retry-After), counting them in hits when non-nil, and hands everything
// else to the real node.
func failFirst(n int32, status int, retryAfter string, hits *atomic.Int32) func(http.Handler) http.Handler {
	var left atomic.Int32
	left.Store(n)
	return func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/shuffler/reports" && left.Add(-1) >= 0 {
				if hits != nil {
					hits.Add(1)
				}
				if retryAfter != "" {
					w.Header().Set("Retry-After", retryAfter)
				}
				http.Error(w, "injected", status)
				return
			}
			inner.ServeHTTP(w, r)
		})
	}
}

const always = math.MaxInt32 // a failFirst count no test outlives

func TestBatchingClientSizeTrigger(t *testing.T) {
	url, srv, _ := newSDKNode(t, nil)
	bc := agent.NewHTTPTransport(url, agent.HTTPTransportOptions{MaxBatch: 4, MaxAge: time.Hour})
	for i := 0; i < 8; i++ {
		if err := bc.Report(oneReport); err != nil {
			t.Fatal(err)
		}
	}
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bc.FlushNode(); err != nil {
		t.Fatal(err)
	}
	st := bc.Stats()
	if st.Reported != 8 || st.Batches != 2 || st.DroppedReports != 0 {
		t.Fatalf("stats %+v", st)
	}
	if sst := srv.Stats(); sst.TuplesIngested != 8 {
		t.Fatalf("server ingested %d, want 8", sst.TuplesIngested)
	}
}

func TestBatchingClientAgeTrigger(t *testing.T) {
	url, _, shuf := newSDKNode(t, nil)
	bc := agent.NewHTTPTransport(url, agent.HTTPTransportOptions{MaxBatch: 1 << 20, MaxAge: 20 * time.Millisecond})
	defer bc.Close()
	if err := bc.Report(oneReport); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for shuf.Stats().Received == 0 {
		if time.Now().After(deadline) {
			t.Fatal("age trigger never flushed the batch")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBatchingClientRetriesTransientFailures(t *testing.T) {
	url, _, shuf := newSDKNode(t, failFirst(2, http.StatusServiceUnavailable, "", nil))
	bc := agent.NewHTTPTransport(url, agent.HTTPTransportOptions{
		MaxBatch: 4, MaxAge: time.Hour, MaxRetries: 5, RetryBase: time.Millisecond,
	})
	for i := 0; i < 4; i++ {
		if err := bc.Report(oneReport); err != nil {
			t.Fatal(err)
		}
	}
	if err := bc.Close(); err != nil {
		t.Fatalf("close after transient failures: %v", err)
	}
	st := bc.Stats()
	if st.Batches != 1 || st.Retries < 2 || st.DroppedBatches != 0 {
		t.Fatalf("stats %+v", st)
	}
	if sst := shuf.Stats(); sst.Received != 4 {
		t.Fatalf("shuffler received %d, want 4", sst.Received)
	}
}

func TestBatchingClientPermanentFailureIsSticky(t *testing.T) {
	url, _, _ := newSDKNode(t, failFirst(always, http.StatusBadRequest, "", nil))
	bc := agent.NewHTTPTransport(url, agent.HTTPTransportOptions{MaxBatch: 2, MaxAge: time.Hour, RetryBase: time.Millisecond})
	for i := 0; i < 2; i++ {
		_ = bc.Report(oneReport)
	}
	err := bc.Close()
	if err == nil || !strings.Contains(err.Error(), "permanent status 400") {
		t.Fatalf("want sticky permanent error, got %v", err)
	}
	st := bc.Stats()
	if st.DroppedBatches != 1 || st.DroppedReports != 2 || st.Retries != 0 {
		t.Fatalf("stats %+v", st)
	}
	if err := bc.Report(agent.Envelope{}); err != agent.ErrClientClosed {
		t.Fatalf("report after close: %v", err)
	}
}

func TestBatchingClientRejectsOversizedEnvelope(t *testing.T) {
	url, srv, _ := newSDKNode(t, nil)
	bc := agent.NewHTTPTransport(url, agent.HTTPTransportOptions{MaxBatch: 2, MaxAge: time.Hour})
	huge := agent.Envelope{
		Meta:  agent.Metadata{DeviceID: strings.Repeat("x", transport.MaxFrameBytes)},
		Tuple: oneReport.Tuple,
	}
	if err := bc.Report(huge); err == nil || !strings.Contains(err.Error(), "transport limit") {
		t.Fatalf("oversized envelope accepted: %v", err)
	}
	// The rejection must not poison the open batch: valid reports flow on.
	for i := 0; i < 2; i++ {
		if err := bc.Report(oneReport); err != nil {
			t.Fatal(err)
		}
	}
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bc.FlushNode(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.TuplesIngested != 2 {
		t.Fatalf("server ingested %d, want 2", st.TuplesIngested)
	}
}

// A shed batch (429 + Retry-After) is retried — adopting the server's
// hint as the backoff base, capped by MaxRetryDelay — and delivered in
// full once the node admits it.
func TestBatchingClientRetries429HonoringRetryAfter(t *testing.T) {
	// A 1s hint: way beyond the client's cap.
	url, _, shuf := newSDKNode(t, failFirst(1, http.StatusTooManyRequests, "1", nil))
	bc := agent.NewHTTPTransport(url, agent.HTTPTransportOptions{
		MaxBatch: 4, MaxAge: time.Hour, MaxRetries: 3,
		RetryBase: time.Millisecond, MaxRetryDelay: 20 * time.Millisecond,
	})
	start := time.Now()
	for i := 0; i < 4; i++ {
		if err := bc.Report(oneReport); err != nil {
			t.Fatal(err)
		}
	}
	// Flush, not Close: Close collapses backoff sleeps, which is exactly
	// the wait this test needs to observe.
	if err := bc.Flush(); err != nil {
		t.Fatalf("flush after a shed batch: %v", err)
	}
	elapsed := time.Since(start)
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
	// The adopted 1s hint is jittered to >= 500ms and then capped at 20ms:
	// the wait is observable but bounded.
	if elapsed < 10*time.Millisecond {
		t.Fatalf("delivered in %v — the Retry-After hint was not honored", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("delivery took %v — MaxRetryDelay did not cap the 1s hint", elapsed)
	}
	st := bc.Stats()
	if st.Batches != 1 || st.Retries != 1 || st.DroppedBatches != 0 {
		t.Fatalf("stats %+v, want 1 batch delivered on 1 retry", st)
	}
	if got := shuf.Stats().Received; got != 4 {
		t.Fatalf("shuffler received %d, want all 4 shed-then-retried reports", got)
	}
}

// Close collapses backoff: a client stuck in a long retry ladder against
// a dead node drains in attempt time, not accumulated sleep time.
func TestBatchingClientCloseCollapsesBackoff(t *testing.T) {
	url, _, _ := newSDKNode(t, failFirst(always, http.StatusServiceUnavailable, "", nil))
	bc := agent.NewHTTPTransport(url, agent.HTTPTransportOptions{
		MaxBatch: 1, MaxAge: time.Hour, MaxRetries: 3, RetryBase: 10 * time.Second,
	})
	if err := bc.Report(oneReport); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := bc.Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("close took %v against a 10s retry base — backoff was not collapsed", elapsed)
	}
	if err == nil || !strings.Contains(err.Error(), "status 503") {
		t.Fatalf("close error = %v, want the sticky 503", err)
	}
	if st := bc.Stats(); st.DroppedBatches != 1 || st.Retries != 3 {
		t.Fatalf("stats %+v, want the full attempt budget spent", st)
	}
}

// An open breaker fails sends fast and locally: the node sees zero
// requests, and the abandonment error says why.
func TestBatchingClientBreakerFailsFast(t *testing.T) {
	var hits atomic.Int32
	url, _, _ := newSDKNode(t, failFirst(always, http.StatusServiceUnavailable, "", &hits))

	cb := agent.NewCircuitBreaker(agent.BreakerConfig{FailureThreshold: 1, OpenFor: time.Hour})
	cb.Record(false) // the model-sync path already learned the node is down

	bc := agent.NewHTTPTransport(url, agent.HTTPTransportOptions{
		MaxBatch: 1, MaxAge: time.Hour, MaxRetries: 2,
		RetryBase: time.Millisecond, Breaker: cb,
	})
	if err := bc.Report(oneReport); err != nil {
		t.Fatal(err)
	}
	err := bc.Close()
	if !errors.Is(err, agent.ErrBreakerOpen) {
		t.Fatalf("close error = %v, want ErrBreakerOpen", err)
	}
	if got := hits.Load(); got != 0 {
		t.Fatalf("node saw %d requests through an open breaker, want 0", got)
	}
	if st := bc.Stats(); st.DroppedBatches != 1 || st.DroppedReports != 1 {
		t.Fatalf("stats %+v, want the batch abandoned", st)
	}
}

// Consecutive send failures open the shared breaker, and a probe after
// the cooldown closes it again — end to end through the transport.
func TestBatchingClientBreakerOpensAndRecovers(t *testing.T) {
	url, _, shuf := newSDKNode(t, failFirst(2, http.StatusInternalServerError, "", nil))
	cb := agent.NewCircuitBreaker(agent.BreakerConfig{FailureThreshold: 2, OpenFor: 20 * time.Millisecond})
	bc := agent.NewHTTPTransport(url, agent.HTTPTransportOptions{
		MaxBatch: 1, MaxAge: time.Hour, MaxRetries: 8,
		RetryBase: 30 * time.Millisecond, Breaker: cb,
	})
	if err := bc.Report(oneReport); err != nil {
		t.Fatal(err)
	}
	// Flush keeps the backoff sleeps alive (Close would collapse them and
	// the cooldown could never elapse between attempts).
	if err := bc.Flush(); err != nil {
		t.Fatalf("flush: %v (breaker never recovered)", err)
	}
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
	if got := cb.State(); got != agent.BreakerClosed {
		t.Fatalf("breaker state after recovery = %v, want closed", got)
	}
	if st := cb.Stats(); st.Opens != 1 {
		t.Fatalf("breaker stats %+v, want exactly 1 open episode", st)
	}
	if got := shuf.Stats().Received; got != 1 {
		t.Fatalf("shuffler received %d, want the recovered report", got)
	}
}

// slowIngestor holds the admission slot for a while before landing the
// tuples in the shuffler — enough service time for a concurrent burst to
// overrun a MaxInFlight cap.
type slowIngestor struct {
	shuf  *shuffler.Shuffler
	delay time.Duration
}

func (s slowIngestor) SubmitEnvelope(e transport.Envelope) error {
	time.Sleep(s.delay)
	s.shuf.Submit(e)
	return nil
}

func (s slowIngestor) SubmitTuples(ts []transport.Tuple) error {
	time.Sleep(s.delay)
	s.shuf.SubmitTuples(ts)
	return nil
}

func (s slowIngestor) Flush() error { s.shuf.Flush(); return nil }

// The overload acceptance bar end to end: a burst beyond the admission
// cap is shed with 429 + Retry-After, and the SDK's retry machinery
// redelivers every shed batch — eventual full delivery, no silent drops.
func TestLoadBurstShedIsRetriedToFullDelivery(t *testing.T) {
	srv := server.New(server.Config{K: 8, Arms: 2, D: 2, Alpha: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 64, Threshold: 0}, srv, rng.New(1))
	adm := httpapi.NewAdmission(httpapi.AdmissionConfig{MaxInFlight: 1, RetryAfter: time.Second})
	ts := httptest.NewServer(httpapi.NewNodeHandlerOpts(shuf, srv, httpapi.NodeOptions{
		Ingest:    slowIngestor{shuf: shuf, delay: 3 * time.Millisecond},
		Admission: adm,
	}))
	defer ts.Close()

	bc := agent.NewHTTPTransport(ts.URL, agent.HTTPTransportOptions{
		MaxBatch: 1, MaxAge: time.Hour, MaxInFlight: 4,
		MaxRetries: 50, RetryBase: time.Millisecond,
		MaxRetryDelay: 5 * time.Millisecond, // cap the node's 1s Retry-After hint
	})
	const reports = 24
	for i := 0; i < reports; i++ {
		if err := bc.Report(agent.Envelope{Tuple: transport.Tuple{Code: i % 8, Action: i % 2, Reward: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	// Flush, not Close: Close collapses backoff sleeps, which would burn
	// the whole retry budget into a still-occupied slot in microseconds.
	if err := bc.Flush(); err != nil {
		t.Fatalf("burst did not fully deliver: %v", err)
	}
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}

	if got := shuf.Stats().Received; got != reports {
		t.Fatalf("shuffler received %d tuples, want all %d", got, reports)
	}
	ost := adm.Stats()
	if ost.Shed == 0 {
		t.Fatalf("no request was shed (overload stats %+v) — the burst never hit the cap", ost)
	}
	st := bc.Stats()
	if st.Retries == 0 || st.DroppedBatches != 0 || st.DroppedReports != 0 {
		t.Fatalf("client stats %+v, want shed batches retried and none dropped", st)
	}
}
