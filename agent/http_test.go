package agent

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"p2b/internal/httpapi"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/transport"
)

const (
	httpDim  = 4
	httpArms = 3
	httpK    = 8
)

// statusRecorder captures the status code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (s *statusRecorder) WriteHeader(c int) {
	s.code = c
	s.ResponseWriter.WriteHeader(c)
}

// newNode runs a full p2bnode HTTP surface and counts the statuses served
// on the versioned model route.
func newNode(t *testing.T) (url string, srv *server.Server, shuf *shuffler.Shuffler, ok200, notModified304 *atomic.Int64) {
	t.Helper()
	srv = server.New(server.Config{K: httpK, Arms: httpArms, D: httpDim, Alpha: 1, Seed: 1})
	shuf = shuffler.New(shuffler.Config{BatchSize: 16, Threshold: 0}, srv, rng.New(3))
	handler := httpapi.NewNodeHandler(shuf, srv)
	ok200, notModified304 = new(atomic.Int64), new(atomic.Int64)
	counting := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/server/model" && r.Method == http.MethodGet {
			rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
			handler.ServeHTTP(rec, r)
			switch rec.code {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusNotModified:
				notModified304.Add(1)
			}
			return
		}
		handler.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(counting)
	t.Cleanup(ts.Close)
	return ts.URL, srv, shuf, ok200, notModified304
}

func TestHTTPSourceCachesAndRevalidates(t *testing.T) {
	url, srv, _, ok200, notModified := newNode(t)
	src := NewHTTPSource(url, HTTPSourceOptions{})
	defer src.Close()

	m, err := src.Model(ModelTabular)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tabular == nil || m.Tabular.K != httpK {
		t.Fatalf("bad model: %+v", m)
	}
	// Cache hit: no second GET.
	if _, err := src.Model(ModelTabular); err != nil {
		t.Fatal(err)
	}
	if got := ok200.Load(); got != 1 {
		t.Fatalf("%d model payloads fetched for two Model calls, want 1", got)
	}
	// Conditional refresh of an unchanged model: a 304, cache kept.
	if err := src.Refresh(ModelTabular); err != nil {
		t.Fatal(err)
	}
	if notModified.Load() != 1 {
		t.Fatalf("refresh of unchanged model served %d 304s, want 1", notModified.Load())
	}
	// Ingestion invalidates: the next refresh carries a payload with the
	// new version.
	srv.Deliver([]transport.Tuple{{Code: 1, Action: 1, Reward: 1}})
	if err := src.Refresh(ModelTabular); err != nil {
		t.Fatal(err)
	}
	m2, err := src.Model(ModelTabular)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version <= m.Version {
		t.Fatalf("refresh did not advance the version: %d -> %d", m.Version, m2.Version)
	}
	st := src.Stats()
	if st.Fetches != 3 || st.NotModified != 1 || st.Refreshed != 2 {
		t.Fatalf("unexpected source stats: %+v", st)
	}
}

// A degraded node (durable log bypassed) still serves: the preflight reads
// it as alive, and anything but ok/degraded as unhealthy.
func TestFetchHealthReadsDegradedAsAlive(t *testing.T) {
	for status, alive := range map[string]bool{"ok": true, "degraded": true, "failing": false} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, `{"status":%q}`, status)
		}))
		if _, err := FetchHealth(ts.URL); (err == nil) != alive {
			t.Errorf("status %q: err = %v, want alive = %v", status, err, alive)
		}
		ts.Close()
	}
}

func TestHTTPSourceBackgroundRefreshJitter(t *testing.T) {
	url, _, _, _, _ := newNode(t)
	const interval = time.Second
	tick := make(chan time.Time)
	waits := make(chan time.Duration, 16)
	src := NewHTTPSource(url, HTTPSourceOptions{
		Refresh: interval,
		Jitter:  0.2,
		after: func(d time.Duration) <-chan time.Time {
			waits <- d
			return tick
		},
	})
	defer src.Close()
	if _, err := src.Model(ModelTabular); err != nil {
		t.Fatal(err)
	}

	// Drive the fake clock: each fired tick triggers one refresh pass,
	// after which the loop asks the clock for the next jittered wait.
	seen := make([]time.Duration, 0, 6)
	seen = append(seen, <-waits) // the wait requested at loop start
	for i := 0; i < 5; i++ {
		tick <- time.Time{}
		seen = append(seen, <-waits)
	}
	lo, hi := time.Duration(float64(interval)*0.8), time.Duration(float64(interval)*1.2)
	distinct := false
	for i, d := range seen {
		if d < lo || d >= hi {
			t.Fatalf("wait %d = %v outside the jitter envelope [%v, %v)", i, d, lo, hi)
		}
		if d != seen[0] {
			distinct = true
		}
	}
	if !distinct {
		t.Fatalf("all %d jittered waits identical (%v): jitter is not applied", len(seen), seen[0])
	}
	// Five ticks with an unchanged model must have revalidated five times,
	// each answered 304.
	st := src.Stats()
	if st.NotModified != 5 {
		t.Fatalf("background refresh produced %d 304s, want 5 (stats %+v)", st.NotModified, st)
	}
}

func TestHTTPSourceCacheReadsDoNotBlockOnFetch(t *testing.T) {
	srv := server.New(server.Config{K: httpK, Arms: httpArms, D: httpDim, Alpha: 1, Seed: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 16, Threshold: 0}, srv, rng.New(3))
	handler := httpapi.NewNodeHandler(shuf, srv)
	var linucbGETs atomic.Int64
	release := make(chan struct{})
	stalling := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/server/model" && r.URL.Query().Get("kind") == "linucb" {
			linucbGETs.Add(1)
			<-release // a stalled node: the fetch hangs until released
		}
		handler.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(stalling)
	defer ts.Close()

	src := NewHTTPSource(ts.URL, HTTPSourceOptions{})
	defer src.Close()
	if _, err := src.Model(ModelTabular); err != nil {
		t.Fatal(err)
	}

	// Two concurrent refreshes of the stalled kind must collapse into one
	// GET...
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- src.Refresh(ModelLinUCB) }()
	}
	// ...while cached reads keep being served instantly.
	served := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			if _, err := src.Model(ModelTabular); err != nil {
				t.Error(err)
				break
			}
		}
		close(served)
	}()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("cached Model calls blocked behind an in-flight fetch of another kind")
	}
	// Release only once the second Refresh has joined the stalled fetch: a
	// goroutine scheduled after the release would start a fetch of its own.
	for deadline := time.Now().Add(5 * time.Second); ; {
		src.mu.Lock()
		f := src.inflight[ModelLinUCB]
		joined := f != nil && f.joiners == 1
		src.mu.Unlock()
		if joined {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the second Refresh never joined the in-flight fetch")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := linucbGETs.Load(); got != 1 {
		t.Fatalf("concurrent refreshes issued %d GETs, want 1 (deduped)", got)
	}
	if m, err := src.Model(ModelLinUCB); err != nil || m.Linear == nil {
		t.Fatalf("deduped fetch did not populate the cache: %+v, %v", m, err)
	}
}

// The end-to-end fleet acceptance test lives in e2e_test.go (external test
// package): it drives the synthetic environment, which depends on
// internal/core and therefore on this package.
