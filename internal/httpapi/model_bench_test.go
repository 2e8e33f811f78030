package httpapi

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"p2b/internal/server"
	"p2b/internal/transport"
)

// benchRW is a ResponseWriter that discards the body without allocating,
// so the benchmark measures the model route, not the recorder.
type benchRW struct {
	h      http.Header
	status int
	n      int
}

func (w *benchRW) Header() http.Header { return w.h }
func (w *benchRW) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
func (w *benchRW) WriteHeader(status int) { w.status = status }

func (w *benchRW) reset() {
	clear(w.h)
	w.status = 0
	w.n = 0
}

// benchModelServer builds a paper-scale server (k=1024, A=20) with data in
// every cell, the worst case for a read path that copies or re-encodes.
func benchModelServer(b *testing.B) *server.Server {
	b.Helper()
	srv := server.New(server.Config{K: 1024, Arms: 20, D: 10, Alpha: 1, Seed: 1})
	batch := make([]transport.Tuple, 4096)
	for i := range batch {
		batch[i] = transport.Tuple{Code: i % 1024, Action: i % 20, Reward: 0.5}
	}
	srv.Deliver(batch)
	for i := 0; i < 64; i++ {
		x := []float64{0.1, 0.2, 0.3, 0.05, 0.05, 0.1, 0.05, 0.05, 0.05, 0.05}
		if err := srv.IngestRaw(transport.RawTuple{Context: x, Action: i % 20, Reward: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
	return srv
}

// BenchmarkModelGet measures the steady-state fleet read path: GET
// /server/model at an unchanged model version. This is the regime a
// polling fleet keeps the node in, so it must cost a header compare plus
// a cached-bytes write — not a snapshot merge plus a fresh encode.
func BenchmarkModelGet(b *testing.B) {
	srv := benchModelServer(b)
	h := newServerHandler(srv).routes()

	run := func(b *testing.B, accept, inm string) {
		req := httptest.NewRequest(http.MethodGet, "/model?kind=tabular", nil)
		req.Header.Set("Accept", accept)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		w := &benchRW{h: make(http.Header)}
		h.ServeHTTP(w, req)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.reset()
			h.ServeHTTP(w, req)
		}
	}

	b.Run("bin", func(b *testing.B) { run(b, transport.ContentTypeModel, "") })
	b.Run("json", func(b *testing.B) { run(b, "application/json", "") })
	b.Run("304", func(b *testing.B) {
		// Fetch once to learn the current ETag, then revalidate forever.
		req := httptest.NewRequest(http.MethodGet, "/model?kind=tabular", nil)
		req.Header.Set("Accept", transport.ContentTypeModel)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		etag := rec.Header().Get("ETag")
		if etag == "" {
			b.Fatal("no ETag on model response")
		}
		run(b, transport.ContentTypeModel, etag)
	})
}
