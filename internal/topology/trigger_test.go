package topology

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2b/internal/server"
)

func TestHoldoffIsNineteenRoundTimesBetweenFloorAndInterval(t *testing.T) {
	const interval = 2 * time.Second
	for _, tc := range []struct{ took, want time.Duration }{
		{0, 5 * time.Millisecond},                      // nothing to push: the floor, not a spin
		{100 * time.Microsecond, 5 * time.Millisecond}, // 1.9ms is still under the floor
		{time.Millisecond, 19 * time.Millisecond},
		{10 * time.Millisecond, 190 * time.Millisecond},
		{200 * time.Millisecond, interval}, // 3.8s: capped at the repair interval
		{30 * time.Second, interval},       // a blackholed peer's client timeout
	} {
		if got := holdoff(tc.took, interval); got != tc.want {
			t.Errorf("holdoff(%v, %v) = %v, want %v", tc.took, interval, got, tc.want)
		}
	}
}

// triggerPeer is a sibling analyzer reduced to what the trigger tests
// observe: every /peer/merge takes delay, is answered with status, and
// leaves its arrival time behind.
type triggerPeer struct {
	url string

	mu       sync.Mutex
	arrivals []time.Time
}

func newTriggerPeer(t *testing.T, delay time.Duration, status int) *triggerPeer {
	t.Helper()
	tp := &triggerPeer{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tp.mu.Lock()
		tp.arrivals = append(tp.arrivals, time.Now())
		tp.mu.Unlock()
		_, _ = io.Copy(io.Discard, r.Body) // drained so the connection is reused
		time.Sleep(delay)
		w.WriteHeader(status)
		if status == http.StatusOK {
			_, _ = io.WriteString(w, `{"applied":true}`)
		}
	}))
	t.Cleanup(ts.Close)
	tp.url = ts.URL
	return tp
}

func (tp *triggerPeer) seen() []time.Time {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return append([]time.Time(nil), tp.arrivals...)
}

// changeStream is the sending analyzer's side of the contract: a version
// counter and the capacity-1 signal that follows every bump.
type changeStream struct {
	version atomic.Uint64
	changed chan struct{}
}

func newChangeStream() *changeStream { return &changeStream{changed: make(chan struct{}, 1)} }

func (c *changeStream) bump() {
	c.version.Add(1)
	select {
	case c.changed <- struct{}{}:
	default:
	}
}

// run bumps every 200µs — far faster than any round — for d.
func (c *changeStream) run(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		c.bump()
		time.Sleep(200 * time.Microsecond)
	}
}

// startTriggered runs a peering loop against peer whose only push trigger
// within a test's lifetime is c, unless interval says otherwise.
func startTriggered(t *testing.T, c *changeStream, peer string, interval time.Duration) *Peering {
	t.Helper()
	srv := server.New(server.Config{K: 8, Arms: 3, D: 2, Alpha: 1})
	p, err := NewPeering(PeeringOptions{
		Origin:       "a1",
		Peers:        []string{peer},
		Interval:     interval,
		Export:       srv.ExportState,
		LocalVersion: c.version.Load,
		Changed:      c.changed,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	t.Cleanup(p.Close)
	return p
}

// Under a continuous change stream the loop spends at most 1/20 of wall
// time pushing: a round against a peer that takes t per request is
// followed by a hold-off of at least 19·t.
func TestTriggeredRoundsObeyTheDutyBound(t *testing.T) {
	const delay, window = 10 * time.Millisecond, time.Second
	peer := newTriggerPeer(t, delay, http.StatusOK)
	c := newChangeStream()
	p := startTriggered(t, c, peer.url, time.Hour)

	c.run(window)
	rounds := len(peer.seen())
	if limit := int(window/(20*delay)) + 1; rounds > limit {
		t.Errorf("%d rounds in %v against a %v peer, duty bound allows %d", rounds, window, delay, limit)
	}
	if rounds < 2 {
		t.Errorf("%d rounds in %v of continuous change: the trigger is not firing", rounds, window)
	}
	st := p.Status()[0]
	if st.Triggered < 2 || st.LastRoundMs < float64(delay/time.Millisecond) {
		t.Errorf("status = %+v, want triggered rounds and a last round of at least %v", st, delay)
	}
}

// A peer that fails slowly would earn a hold-off of 19 round times; the
// repair interval caps it, so attempts keep the spacing the ticker alone
// gave them — never further apart, and never hammering the failing peer
// faster either.
func TestTriggeredRetriesAgainstASlowFailingPeerKeepTheRepairInterval(t *testing.T) {
	const delay, interval, window = 40 * time.Millisecond, 200 * time.Millisecond, 1500 * time.Millisecond
	peer := newTriggerPeer(t, delay, http.StatusServiceUnavailable)
	c := newChangeStream()
	p := startTriggered(t, c, peer.url, interval)

	c.run(window)
	seen := peer.seen()
	if limit := int(window/interval) + 2; len(seen) < 3 || len(seen) > limit {
		t.Fatalf("%d attempts in %v, want between 3 and %d", len(seen), window, limit)
	}
	// 100ms of scheduling slack on top of the round a gap may contain.
	for i := 1; i < len(seen); i++ {
		if gap := seen[i].Sub(seen[i-1]); gap > interval+delay+100*time.Millisecond {
			t.Errorf("attempts %d and %d are %v apart, repair interval is %v", i-1, i, gap, interval)
		}
	}
	if st := p.Status()[0]; st.Errors < 2 || st.Pushes != 0 {
		t.Errorf("status = %+v after %d failed attempts", st, len(seen))
	}
}

// Close must not wait out a pending hold-off.
func TestCloseReturnsDuringAHoldoff(t *testing.T) {
	const delay = 100 * time.Millisecond // earns a 1.9s hold-off
	peer := newTriggerPeer(t, delay, http.StatusOK)
	c := newChangeStream()
	p := startTriggered(t, c, peer.url, time.Hour)

	c.bump()
	waitFor(t, 5*time.Second, func() bool { return p.Status()[0].Triggered == 1 }, "the change to trigger a round")
	c.bump() // lands in the hold-off: a trailing round is now owed
	start := time.Now()
	p.Close()
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close took %v with a hold-off pending", took)
	}
	if n := len(peer.seen()); n != 1 {
		t.Errorf("peer saw %d pushes, want only the leading one", n)
	}
}
