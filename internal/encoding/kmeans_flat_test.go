package encoding

import (
	"math"
	"sync"
	"testing"

	"p2b/internal/rng"
)

// TestPropertyEncodeMatchesNaive is the exactness guarantee of the pruned
// nearest-centroid search: over many random encoders and random simplex
// contexts, Encode must return the bit-identical code of the naive full
// scan, including tie resolution to the lowest index.
func TestPropertyEncodeMatchesNaive(t *testing.T) {
	r := rng.New(20200302)
	for trial := 0; trial < 30; trial++ {
		tr := r.SplitIndex("trial", trial)
		d := 2 + tr.IntN(12)
		k := 1 + tr.IntN(257)
		sample := make([][]float64, 4*k)
		for i := range sample {
			sample[i] = tr.Simplex(d)
		}
		m, err := FitKMeans(sample, k, 5, 1e-9, tr.Split("fit"))
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 200; q++ {
			x := tr.Simplex(d)
			if got, want := m.Encode(x), m.EncodeNaive(x); got != want {
				t.Fatalf("trial %d (k=%d d=%d): pruned Encode = %d, naive = %d", trial, k, d, got, want)
			}
		}
	}
}

// TestPropertyEncodeMatchesNaiveWithTies stresses the degenerate case the
// random fit never produces: duplicated centroids, where ties must resolve
// to the lowest index under both scans.
func TestPropertyEncodeMatchesNaiveWithTies(t *testing.T) {
	r := rng.New(7)
	d, k := 4, 64
	flat := make([]float64, k*d)
	for i := 0; i < k; i++ {
		// Only 8 distinct centroids, each repeated 8 times.
		src := r.SplitIndex("cent", i%8).Simplex(d)
		copy(flat[i*d:(i+1)*d], src)
	}
	m := newKMeans(flat, k, d)
	for q := 0; q < 500; q++ {
		x := r.SplitIndex("query", q).Simplex(d)
		if got, want := m.Encode(x), m.EncodeNaive(x); got != want {
			t.Fatalf("query %d: pruned Encode = %d, naive = %d", q, got, want)
		}
	}
	// Querying a centroid exactly must return its first occurrence.
	for i := 0; i < 8; i++ {
		x := m.Centroid(i + 8) // a duplicate of centroid i
		if got := m.Encode(x); got != i {
			t.Fatalf("exact duplicate query: Encode = %d, want %d", got, i)
		}
	}
}

func TestDecodeTo(t *testing.T) {
	m := newKMeans([]float64{0.25, 0.75, 0.5, 0.5}, 2, 2)
	buf := make([]float64, 2)
	got := m.DecodeTo(buf, 1)
	if &got[0] != &buf[0] {
		t.Fatal("DecodeTo did not reuse the provided buffer")
	}
	if got[0] != 0.5 || got[1] != 0.5 {
		t.Fatalf("DecodeTo = %v", got)
	}
	// Undersized (and nil) destinations are grown.
	if got := m.DecodeTo(nil, 0); got[0] != 0.25 || got[1] != 0.75 {
		t.Fatalf("DecodeTo(nil) = %v", got)
	}
	// The buffer must not alias internal storage.
	got[0] = 99
	if m.flat[0] != 0.25 {
		t.Fatal("DecodeTo aliases the centroid buffer")
	}
}

// TestFitKMeansWorkersDeterministic pins what parallel experiments rely on:
// fits running concurrently on one shared data set neither race nor
// perturb each other, so each equals a solo fit bit for bit. k = 128 also
// builds the search index.
func TestFitKMeansWorkersDeterministic(t *testing.T) {
	r := rng.New(11)
	data := make([][]float64, 600)
	for i := range data {
		data[i] = r.SplitIndex("pt", i).Simplex(6)
	}
	solo, err := FitKMeans(data, 128, 20, 1e-9, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	fits := make([]*KMeans, 4)
	errs := make([]error, len(fits))
	var wg sync.WaitGroup
	for i := range fits {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fits[i], errs[i] = FitKMeans(data, 128, 20, 1e-9, rng.New(5))
		}(i)
	}
	wg.Wait()
	for i, m := range fits {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for j := range solo.flat {
			if m.flat[j] != solo.flat[j] {
				t.Fatalf("fit %d flat[%d]: concurrent %v vs solo %v", i, j, m.flat[j], solo.flat[j])
			}
		}
		for _, x := range data[:50] {
			if m.Encode(x) != solo.Encode(x) {
				t.Fatalf("fit %d encodes %v differently from the solo fit", i, x)
			}
		}
	}
}

// TestEncodeZeroAlloc pins the zero-allocation contract of the on-device
// hot path.
func TestEncodeZeroAlloc(t *testing.T) {
	r := rng.New(3)
	sample := make([][]float64, 512)
	for i := range sample {
		sample[i] = r.Simplex(10)
	}
	m, err := FitKMeans(sample, 128, 5, 1e-6, r.Split("fit"))
	if err != nil {
		t.Fatal(err)
	}
	x := r.Simplex(10)
	buf := make([]float64, 10)
	if n := testing.AllocsPerRun(100, func() { m.Encode(x) }); n != 0 {
		t.Fatalf("Encode allocates %v times per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.DecodeTo(buf, 3) }); n != 0 {
		t.Fatalf("DecodeTo allocates %v times per run", n)
	}
}

// TestEncodeNonFiniteContext pins the degenerate-input contract: a context
// containing NaN or Inf makes every distance comparison false, so all
// search paths — naive, flat and indexed — must agree on code 0 rather
// than emitting an out-of-range code.
func TestEncodeNonFiniteContext(t *testing.T) {
	r := rng.New(9)
	sample := make([][]float64, 1024)
	for i := range sample {
		sample[i] = r.Simplex(10)
	}
	// k >= indexMinK so the grouped index path is exercised.
	m, err := FitKMeans(sample, 256, 3, 1e-6, r.Split("fit"))
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]float64{
		{math.NaN(), 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{math.Inf(1), 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{0, 0, 0, math.Inf(-1), 0, 0, 0, 0, math.NaN(), 0},
	}
	for i, x := range bad {
		naive := m.EncodeNaive(x)
		got := m.Encode(x)
		flat := m.encodeFlat(x)
		if got != naive || flat != naive {
			t.Fatalf("case %d: indexed=%d flat=%d naive=%d", i, got, flat, naive)
		}
		if got < 0 || got >= m.K() {
			t.Fatalf("case %d: code %d out of range", i, got)
		}
	}
}
