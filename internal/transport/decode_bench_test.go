package transport

import (
	"testing"

	"p2b/internal/rng"
)

// BenchmarkDecodeTuples decodes one WAL tuple record's stream: 200
// zero-metadata frames, the ingest_interval record shape. At k = 64 every
// code is one varint byte, so each frame takes the 11-byte fast path; at
// k = 1024 most codes take two bytes and go through the general frame
// rule. One op is one record.
func BenchmarkDecodeTuples(b *testing.B) {
	for _, c := range []struct {
		name string
		k    int
	}{{"k=64", 64}, {"k=1024", 1024}} {
		b.Run(c.name, func(b *testing.B) {
			r := rng.New(3)
			zipf := rng.NewZipf(r, 1.1, c.k)
			tuples := make([]Tuple, 200)
			for i := range tuples {
				tuples[i] = Tuple{Code: zipf.Draw(), Action: r.IntN(8), Reward: float64(r.IntN(2))}
			}
			stream := AppendTuples(nil, tuples)
			dst := make([]Tuple, 0, len(tuples))
			b.SetBytes(int64(len(stream)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if dst, err = DecodeTuples(dst[:0], stream); err != nil || len(dst) != len(tuples) {
					b.Fatalf("decoded %d tuples, err %v", len(dst), err)
				}
			}
		})
	}
}
