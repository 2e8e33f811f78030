package agent

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"p2b/internal/transport"
)

// The full closed -> open -> half-open -> closed walk, on a fake clock.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	cb := NewCircuitBreaker(BreakerConfig{
		FailureThreshold: 2,
		OpenFor:          time.Minute,
		now:              func() time.Time { return now },
	})

	if !cb.Allow() {
		t.Fatal("fresh breaker refused a request")
	}
	cb.Record(false)
	if got := cb.State(); got != BreakerClosed {
		t.Fatalf("state after 1 failure = %v, want closed (threshold is 2)", got)
	}
	if !cb.Allow() {
		t.Fatal("closed breaker refused a request")
	}
	cb.Record(false)
	if got := cb.State(); got != BreakerOpen {
		t.Fatalf("state after 2 failures = %v, want open", got)
	}

	// Open: refused until the cooldown elapses.
	if cb.Allow() {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	now = now.Add(59 * time.Second)
	if cb.Allow() {
		t.Fatal("open breaker admitted a request 1s before the cooldown ends")
	}
	now = now.Add(time.Second)

	// Cooldown over: exactly one probe goes through.
	if !cb.Allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if got := cb.State(); got != BreakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", got)
	}
	if cb.Allow() {
		t.Fatal("half-open breaker admitted a second request while the probe is in flight")
	}

	// Probe fails: re-open immediately, new cooldown from now.
	cb.Record(false)
	if got := cb.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if cb.Allow() {
		t.Fatal("re-opened breaker admitted a request without a new cooldown")
	}

	// Second probe succeeds: closed, failure run zeroed.
	now = now.Add(time.Minute)
	if !cb.Allow() {
		t.Fatal("second probe refused")
	}
	cb.Record(true)
	if got := cb.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	st := cb.Stats()
	if st.Failures != 0 || st.Opens != 2 || st.Rejected != 4 {
		t.Fatalf("stats = %+v, want failures=0 opens=2 rejected=4", st)
	}
}

// A nil breaker is a no-op: everything is admitted, nothing panics.
func TestBreakerNilIsNoop(t *testing.T) {
	var cb *CircuitBreaker
	if !cb.Allow() {
		t.Fatal("nil breaker refused a request")
	}
	cb.Record(false)
	if got := cb.State(); got != BreakerClosed {
		t.Fatalf("nil breaker state = %v, want closed", got)
	}
	if st := cb.Stats(); st.State != "closed" {
		t.Fatalf("nil breaker stats = %+v", st)
	}
}

// The breaker tracks the NODE's health on both paths that share it. A
// permanent 4xx on the model route (a kind this node does not serve) proves
// the node is up: it must not open the breaker and fail healthy report
// delivery fast. A node nothing can connect to still must.
func TestModel4xxDoesNotOpenSharedBreaker(t *testing.T) {
	url, _, shuf, _, _ := newNode(t)
	cb := NewCircuitBreaker(BreakerConfig{FailureThreshold: 3, OpenFor: time.Hour})
	src := NewHTTPSource(url, HTTPSourceOptions{Breaker: cb})
	for i := 0; i < 5; i++ {
		// A node serves no centroid model, so it answers that kind with 400.
		if err := src.Refresh(ModelCentroid); err == nil || !strings.Contains(err.Error(), "status 400") {
			t.Fatalf("centroid fetch %d = %v, want the node's own 400 every time", i, err)
		}
	}
	if st := cb.Stats(); st.State != "closed" || st.Failures != 0 {
		t.Fatalf("breaker after five 400 model fetches = %+v, want closed with no failures", st)
	}
	tr := NewHTTPTransport(url, HTTPTransportOptions{MaxBatch: 1, MaxAge: time.Hour, MaxRetries: -1, Breaker: cb})
	if err := tr.Report(Envelope{Tuple: transport.Tuple{Code: 1, Action: 1, Reward: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("report delivery through the shared breaker: %v", err)
	}
	if got := shuf.Stats().Received; got != 1 {
		t.Fatalf("shuffler received %d reports, want 1", got)
	}

	dead := httptest.NewServer(nil)
	dead.Close()
	down := NewCircuitBreaker(BreakerConfig{FailureThreshold: 3, OpenFor: time.Hour})
	deadSrc := NewHTTPSource(dead.URL, HTTPSourceOptions{Breaker: down})
	for i := 0; i < 3; i++ {
		if err := deadSrc.Refresh(ModelTabular); err == nil {
			t.Fatal("fetch from a closed listener succeeded")
		}
	}
	if got := down.State(); got != BreakerOpen {
		t.Fatalf("breaker after three refused connections = %v, want open", got)
	}
}
