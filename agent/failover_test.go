// Failover referee: a fleet whose report target dies mid-run must
// re-discover from the bulletin board and continue against a surviving
// node, with the swap visible only in the failover counters.
package agent

import (
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"p2b/internal/httpapi"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/topology"
	"p2b/internal/transport"
)

// failoverNode is one report target: a combined node with its receipt
// counters readable from the test.
type failoverNode struct {
	srv  *server.Server
	shuf *shuffler.Shuffler
	ts   *httptest.Server
}

func newFailoverNode(t *testing.T) *failoverNode {
	t.Helper()
	srv := server.New(server.Config{K: 16, Arms: 4, D: 3, Alpha: 1, Seed: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, srv, rng.New(1))
	ts := httptest.NewServer(httpapi.NewNodeHandler(shuf, srv))
	t.Cleanup(ts.Close)
	return &failoverNode{srv: srv, shuf: shuf, ts: ts}
}

func (n *failoverNode) received() int64 { return n.shuf.Stats().Received }

func TestFailoverTransportSwitchesToSurvivingNode(t *testing.T) {
	a := newFailoverNode(t)
	b := newFailoverNode(t)

	// Both nodes sit on the board as announced entries with fresh
	// heartbeats, the way a real fleet publishes them.
	reg, err := topology.NewRegistry(nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*failoverNode{"node-a": a, "node-b": b} {
		if err := reg.Register(topology.Node{Name: name, Role: topology.RoleCombined, URL: n.ts.URL}); err != nil {
			t.Fatal(err)
		}
	}
	board := httptest.NewServer(reg.Handler())
	defer board.Close()

	// MaxBatch 1 ships every report immediately; a one-failure breaker
	// with a long cooldown makes the dead node's refusal deterministic
	// and fast instead of riding out the full retry ladder repeatedly.
	ft, err := NewFailoverTransport(board.URL, FailoverOptions{
		Seed: 7,
		Transport: HTTPTransportOptions{
			MaxBatch:      1,
			MaxInFlight:   1,
			MaxRetries:    1,
			RetryBase:     time.Millisecond,
			MaxRetryDelay: 5 * time.Millisecond,
		},
		Breaker: BreakerConfig{FailureThreshold: 1, OpenFor: time.Hour},
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Close()

	st := ft.Status()
	first, survivor := a, b
	survivorName := "node-b"
	if st.Node == "node-b" {
		first, survivor = b, a
		survivorName = "node-a"
	}

	env := transport.Envelope{Tuple: transport.Tuple{Code: 1, Action: 1, Reward: 1}}
	if err := ft.Report(env); err != nil {
		t.Fatal(err)
	}
	if err := ft.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := first.received(); got != 1 {
		t.Fatalf("picked node received %d reports before the outage, want 1", got)
	}

	// The picked node dies. Reports keep flowing: the breaker trips, the
	// transport re-discovers from the board, excludes the dead node, and
	// retries against the survivor.
	first.ts.Close()
	deadline := time.Now().Add(10 * time.Second)
	for ft.Status().Failovers == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no failover within the deadline; status %+v", ft.Status())
		}
		// Breaker-open refusals surface here and trigger the failover;
		// they are expected while the outage is being detected.
		if err := ft.Report(env); err != nil && !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("report failed with a non-breaker error mid-outage: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	st = ft.Status()
	if st.Node != survivorName || st.URL != survivor.ts.URL {
		t.Fatalf("failover status %+v does not point at the survivor %q (%s)", st, survivorName, survivor.ts.URL)
	}
	if st.Discoveries < 2 {
		t.Fatalf("status %+v, want at least the initial discovery plus the failover re-fetch", st)
	}

	// Traffic continues against the survivor.
	before := survivor.received()
	if err := ft.Report(env); err != nil {
		t.Fatal(err)
	}
	if err := ft.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := survivor.received(); got <= before {
		t.Fatalf("survivor received %d reports after failover, want more than %d", got, before)
	}
}

// A board with no alternative target: failover must fail loudly in the
// status while the original breaker error keeps surfacing to the caller.
func TestFailoverWithNoAlternativeKeepsOriginalError(t *testing.T) {
	a := newFailoverNode(t)
	reg, err := topology.NewRegistry(nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(topology.Node{Name: "only", Role: topology.RoleCombined, URL: a.ts.URL}); err != nil {
		t.Fatal(err)
	}
	board := httptest.NewServer(reg.Handler())
	defer board.Close()

	ft, err := NewFailoverTransport(board.URL, FailoverOptions{
		Transport: HTTPTransportOptions{
			MaxBatch:      1,
			MaxInFlight:   1,
			MaxRetries:    1,
			RetryBase:     time.Millisecond,
			MaxRetryDelay: 5 * time.Millisecond,
		},
		Breaker: BreakerConfig{FailureThreshold: 1, OpenFor: time.Hour},
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Close()

	a.ts.Close()
	env := transport.Envelope{Tuple: transport.Tuple{Code: 1, Action: 1, Reward: 1}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := ft.Report(env)
		if err != nil && errors.Is(err, ErrBreakerOpen) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker-open error never surfaced")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := ft.Status()
	if st.Failovers != 0 || st.LastError == "" {
		t.Fatalf("status with no alternative = %+v, want zero failovers and a recorded error", st)
	}
}
