package agent

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"p2b/internal/bandit"
	"p2b/internal/rng"
	"p2b/internal/transport"
)

// testdata/wire_golden.txt is what a node observed from the last SDK client
// that lived in internal/httpapi (commit 38c9192: BatchingClient with
// MaxBatch 3 / MaxInFlight 1 and two Client.FetchModel calls, driven by the
// recorder and envelope sequence below). The merged HTTPTransport and
// HTTPSource must put the same bytes and headers on the wire; an
// intentional wire change edits the golden from this test's failure output.
const wireGoldenETag = `"golden-etag"`

// wireRecorder is a stand-in node that transcribes every request's method,
// path, negotiation headers and body, and answers like a real one.
type wireRecorder struct {
	mu    sync.Mutex
	log   strings.Builder
	posts int
}

func (rec *wireRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	rec.mu.Lock()
	fmt.Fprintf(&rec.log, "%s %s\n", r.Method, r.URL.RequestURI())
	for _, h := range []string{"Content-Type", "Accept", "If-None-Match"} {
		fmt.Fprintf(&rec.log, "%s: %s\n", h, r.Header.Get(h))
	}
	fmt.Fprintf(&rec.log, "Body: %x\n\n", body)
	if r.Method == http.MethodPost {
		rec.posts++
	}
	rec.mu.Unlock()
	switch {
	case r.Method == http.MethodPost:
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"accepted":0,"dropped":0}`)
	case r.Header.Get("If-None-Match") == wireGoldenETag:
		w.Header().Set("ETag", wireGoldenETag)
		w.WriteHeader(http.StatusNotModified)
	default:
		w.Header().Set("ETag", wireGoldenETag)
		w.Header().Set("Content-Type", transport.ContentTypeModel)
		w.Write(transport.AppendTabularModel(nil, 7, &bandit.TabularState{
			Alpha: 1, K: 2, Arms: 2, Count: []float64{1, 0, 2, 0}, Sum: []float64{1, 0, 0.5, 0},
		}))
	}
}

func (rec *wireRecorder) waitPosts(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec.mu.Lock()
		got := rec.posts
		rec.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node saw %d batch POSTs, want %d", got, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func wireGoldenEnvelopes() []Envelope {
	r := rng.New(42)
	envs := make([]Envelope, 7)
	for i := range envs {
		envs[i] = Envelope{
			Meta: Metadata{
				DeviceID: fmt.Sprintf("device-%04d", r.IntN(10000)),
				Addr:     fmt.Sprintf("10.0.%d.%d:4%03d", r.IntN(256), r.IntN(256), r.IntN(1000)),
				SentAt:   1_700_000_000_000_000_000 + int64(i),
			},
			Tuple: transport.Tuple{Code: r.IntN(64), Action: r.IntN(8), Reward: r.Float64()},
		}
	}
	return envs
}

func TestWireMatchesParentClientGolden(t *testing.T) {
	rec := &wireRecorder{}
	ts := httptest.NewServer(rec)
	defer ts.Close()

	// Seven reports at MaxBatch 3: two size-cut batches, then a tail only
	// the age trigger can ship.
	tr := NewHTTPTransport(ts.URL, HTTPTransportOptions{MaxBatch: 3, MaxAge: 30 * time.Millisecond, MaxInFlight: 1, Seed: 42})
	for _, e := range wireGoldenEnvelopes() {
		if err := tr.Report(e); err != nil {
			t.Fatal(err)
		}
	}
	rec.waitPosts(t, 3)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// An unconditional fetch, then a revalidation carrying the ETag.
	src := NewHTTPSource(ts.URL, HTTPSourceOptions{})
	for i := 0; i < 2; i++ {
		if err := src.Refresh(ModelTabular); err != nil {
			t.Fatal(err)
		}
	}
	if st := src.Stats(); st.Refreshed != 1 || st.NotModified != 1 {
		t.Fatalf("source stats %+v, want one payload and one 304", st)
	}

	want, err := os.ReadFile("testdata/wire_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.log.String(); got != string(want) {
		t.Fatalf("wire transcript drifted from testdata/wire_golden.txt\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
