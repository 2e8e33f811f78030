package shuffler

import (
	"testing"

	"p2b/internal/rng"
	"p2b/internal/transport"
)

// BenchmarkSubmitCut feeds 200-tuple chunks into 256-tuple batches at
// threshold 4, codes drawn Zipf(1.1) over 64 — the shape of a WAL replay
// or a durable node's ingest at the ingest_interval load. One op is one
// chunk: the append, and the shuffle, count, keep and deliver of every
// batch the chunk completes. A cut allocates nothing, so neither may an
// op.
func BenchmarkSubmitCut(b *testing.B) {
	r := rng.New(5)
	zipf := rng.NewZipf(r, 1.1, 64)
	chunks := make([][]transport.Tuple, 64)
	for c := range chunks {
		chunks[c] = make([]transport.Tuple, 200)
		for i := range chunks[c] {
			chunks[c][i] = transport.Tuple{Code: zipf.Draw(), Action: r.IntN(8), Reward: float64(r.IntN(2))}
		}
	}
	s := New(Config{BatchSize: 256, Threshold: 4}, SinkFunc(func([]transport.Tuple) {}), rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SubmitTuples(chunks[i%len(chunks)])
	}
}
