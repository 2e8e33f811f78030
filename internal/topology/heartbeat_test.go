// Heartbeat and registry liveness edges: startup registration retries
// until the board appears, the degrade probe rides every announcement,
// expiry windows restart cleanly, and the Alive filter steers discovery
// away from dead or limping nodes.
package topology

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond every millisecond until it holds or the deadline
// passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal(msg)
}

func TestHeartbeatRetriesUntilBoardAppears(t *testing.T) {
	reg, err := NewRegistry(nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The board is "down" for the first few registrations: the gate
	// answers 503 until opened, simulating a node that boots before its
	// board out of a rack power cycle.
	var boardUp atomic.Bool
	handler := reg.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !boardUp.Load() {
			http.Error(w, "board still booting", http.StatusServiceUnavailable)
			return
		}
		handler.ServeHTTP(w, r)
	}))
	defer ts.Close()

	hb := NewHeartbeat(ts.URL, Node{Name: "relay-1", Role: RoleRelay, URL: "http://r"},
		HeartbeatOptions{TTL: time.Second, Logf: t.Logf})
	hb.Start()
	defer hb.Stop()

	// The startup backoff must keep retrying on its own — no beat ticker
	// is running yet — and the counters must show the failed attempts.
	waitFor(t, 5*time.Second, func() bool { return hb.Status().Failures >= 2 },
		"heartbeat did not retry against an unreachable board")
	if st := hb.Status(); st.Registered || st.LastError == "" || st.LastOKUnixNano != 0 {
		t.Fatalf("status while board down = %+v, want unregistered with a last error", st)
	}

	boardUp.Store(true)
	waitFor(t, 5*time.Second, func() bool { return hb.Status().Registered },
		"heartbeat never registered after the board came up")
	st := hb.Status()
	if st.LastError != "" || st.LastOKUnixNano == 0 || st.Failures == 0 || st.Attempts <= st.Failures {
		t.Fatalf("status after recovery = %+v, want a success recorded on top of the failures", st)
	}
	if got := names(reg.Document().Nodes); !reflect.DeepEqual(got, []string{"relay-1"}) {
		t.Fatalf("board after recovery = %v, want the announced node", got)
	}
}

// Nodes that reboot together must not retry registration together: the
// startup ladder's jitter derives from the node name, so two names draw
// different waits against the same dead board while one name reproduces
// its own sequence boot after boot.
func TestHeartbeatJitterDerivesFromName(t *testing.T) {
	const deadBoard = "http://127.0.0.1:1"
	waits := func(name string) [4]time.Duration {
		hb := NewHeartbeat(deadBoard, Node{Name: name, Role: RoleRelay, URL: "http://r"}, HeartbeatOptions{})
		if err := hb.register(); err == nil {
			t.Fatal("registration against a dead board succeeded")
		}
		var w [4]time.Duration
		for i := range w {
			w[i] = hb.retry.Next()
		}
		return w
	}
	a, b := waits("relay-1"), waits("relay-2")
	if a[0] == b[0] {
		t.Fatalf("relay-1 and relay-2 both wait %v first: the fleet retries in lockstep", a[0])
	}
	if again := waits("relay-1"); again != a {
		t.Fatalf("relay-1 waits %v, then %v on the next boot: jitter is not a function of the name", a, again)
	}
}

func TestHeartbeatAnnouncesDegradeState(t *testing.T) {
	reg, err := NewRegistry(nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	var degraded atomic.Bool
	degraded.Store(true)
	// A tiny TTL makes the steady-state beat (TTL/3) fast enough to
	// observe the flag flip within the test budget.
	hb := NewHeartbeat(ts.URL, Node{Name: "node-1", Role: RoleCombined, URL: "http://n"},
		HeartbeatOptions{TTL: 150 * time.Millisecond, Logf: t.Logf, Degraded: degraded.Load})
	hb.Start()
	defer hb.Stop()

	waitFor(t, 5*time.Second, func() bool {
		nodes := reg.Document().Nodes
		return len(nodes) == 1 && nodes[0].Degraded
	}, "board never saw the degraded announcement")

	// The probe is sampled per announcement: recovery must propagate on
	// the next beat without restarting the heartbeat.
	degraded.Store(false)
	waitFor(t, 5*time.Second, func() bool {
		nodes := reg.Document().Nodes
		return len(nodes) == 1 && !nodes[0].Degraded
	}, "board never saw the node recover from degraded")
}

// Re-registration after TTL expiry starts a fresh window, and a node whose
// heartbeat resumes after expiry reappears exactly once — expiry deleted
// the old entry, so resumption is a clean re-announcement, not a merge.
func TestRegistryExpiryWindowRestartsOnReRegistration(t *testing.T) {
	reg, err := NewRegistry(nil, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1000, 0)
	reg.now = func() time.Time { return clock }

	n := Node{Name: "relay-1", Role: RoleRelay, URL: "http://r"}
	if err := reg.Register(n); err != nil {
		t.Fatal(err)
	}

	// Heartbeats stop; the entry expires.
	clock = clock.Add(31 * time.Second)
	if got := len(reg.Document().Nodes); got != 0 {
		t.Fatalf("expired node still on the board: %v", names(reg.Document().Nodes))
	}

	// The heartbeat resumes: the node reappears exactly once.
	resumeAt := clock
	if err := reg.Register(n); err != nil {
		t.Fatal(err)
	}
	doc := reg.Document()
	if got := names(doc.Nodes); !reflect.DeepEqual(got, []string{"relay-1"}) {
		t.Fatalf("board after resumed heartbeat = %v, want exactly one relay-1", got)
	}
	// The fresh window runs from the resumption, not the original
	// registration: just short of resumeAt+TTL the node is alive...
	clock = resumeAt.Add(29 * time.Second)
	if got := names(reg.Document().Nodes); !reflect.DeepEqual(got, []string{"relay-1"}) {
		t.Fatalf("re-registered node expired inside its fresh window: %v", got)
	}
	// ...and past it, it expires again.
	clock = resumeAt.Add(31 * time.Second)
	if got := len(reg.Document().Nodes); got != 0 {
		t.Fatalf("re-registered node outlived its fresh window: %v", names(reg.Document().Nodes))
	}
}

// The board stamps its last-heard time on announced nodes, and the stamp
// is byte-identical between heartbeats — repeated fetches of unchanged
// board state must compare equal.
func TestDocumentStampsHeartbeatTime(t *testing.T) {
	reg, err := NewRegistry(&Document{Nodes: []Node{{Name: "static", Role: RoleAnalyzer, URL: "http://s"}}}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1000, 0)
	reg.now = func() time.Time { return clock }

	if err := reg.Register(Node{Name: "live", Role: RoleRelay, URL: "http://r"}); err != nil {
		t.Fatal(err)
	}
	registeredAt := clock
	clock = clock.Add(5 * time.Second)
	first := reg.Document()
	clock = clock.Add(5 * time.Second)
	second := reg.Document()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("documents between heartbeats differ:\n first %+v\nsecond %+v", first, second)
	}
	var live, static Node
	for _, n := range first.Nodes {
		switch n.Name {
		case "live":
			live = n
		case "static":
			static = n
		}
	}
	if live.HeartbeatUnixNano != registeredAt.UnixNano() {
		t.Fatalf("live node stamped %d, want the registration time %d", live.HeartbeatUnixNano, registeredAt.UnixNano())
	}
	if static.HeartbeatUnixNano != 0 {
		t.Fatalf("static node stamped %d, want 0 (static entries have no liveness signal)", static.HeartbeatUnixNano)
	}
}

func TestAliveFiltersDegradedAndStale(t *testing.T) {
	now := time.Unix(2000, 0)
	fresh := Node{Name: "fresh", Role: RoleRelay, URL: "http://f", HeartbeatUnixNano: now.Add(-5 * time.Second).UnixNano()}
	stale := Node{Name: "stale", Role: RoleRelay, URL: "http://s", HeartbeatUnixNano: now.Add(-time.Minute).UnixNano()}
	degraded := Node{Name: "limping", Role: RoleRelay, URL: "http://d", Degraded: true, HeartbeatUnixNano: now.UnixNano()}
	static := Node{Name: "static", Role: RoleRelay, URL: "http://c"} // no heartbeat: operator config

	got := Alive([]Node{fresh, stale, degraded, static}, 30*time.Second, now)
	if want := []Node{fresh, static}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Alive = %v, want fresh + static", names(got))
	}

	// maxAge 0 disables the age check but still drops degraded nodes.
	got = Alive([]Node{stale, degraded}, 0, now)
	if want := []Node{stale}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Alive with maxAge 0 = %v, want the stale-but-not-degraded node", names(got))
	}

	// A uniformly unhealthy fleet falls back to the full candidate list:
	// an attempt against a limping node beats refusing to deliver at all.
	all := []Node{degraded}
	if got := Alive(all, 30*time.Second, now); !reflect.DeepEqual(got, all) {
		t.Fatalf("Alive over an all-unhealthy fleet = %v, want the original list back", names(got))
	}
}
