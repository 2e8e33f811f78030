package encoding

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"p2b/internal/rng"
)

// KMeans is the clustering encoder the paper evaluates: contexts are
// assigned the index of their nearest centroid. The centroids are fitted on
// a public sample of the context distribution and shipped to agents, so
// encoding at inference time is O(k d) — the complexity the paper quotes
// for the on-device overhead.
//
// Centroids are stored in one contiguous row-major buffer (centroid i is
// flat[i*d : (i+1)*d]) with precomputed Euclidean norms, so the nearest-
// centroid scan is cache-friendly and can prune candidates:
//
//   - norm pruning: (|c| - |x|)^2 lower-bounds |x - c|^2, so a centroid
//     whose norm gap already exceeds the best distance found so far is
//     skipped without touching its coordinates;
//   - partial-distance early exit: the running sum of squared coordinate
//     differences is monotone, so the scan of a centroid aborts as soon as
//     the partial sum exceeds the best distance;
//   - triangle-inequality group pruning (for k >= indexMinK): the fitted
//     centroids are clustered into ~1.5*sqrt(k) groups; dist(x, c) >=
//     |dist(x, g) - dist(c, g)| for a group center g, so whole groups and,
//     within a visited group, whole runs of members sorted by their
//     center distance are skipped with O(1) work each (see searchIndex).
//
// All prunings are exact: Encode returns bit-identical codes to the naive
// full scan (EncodeNaive), including ties resolving to the lowest index,
// which the property tests verify. A fitted (or deserialized) KMeans is
// immutable, so Encode/Decode/DecodeTo are safe for concurrent use.
type KMeans struct {
	flat  []float64 // k*d row-major centroid buffer
	norms []float64 // Euclidean norm |c_i| per centroid
	k     int
	d     int
	idx   *searchIndex // nil below indexMinK
}

// newKMeans wraps a flat centroid buffer, computing the norm cache and the
// pruned search index.
func newKMeans(flat []float64, k, d int) *KMeans {
	m := newKMeansNoIndex(flat, k, d)
	m.buildIndex()
	return m
}

// newKMeansNoIndex is the constructor the fitting loops use: while the
// centroids are still moving, only the norm cache is maintained and all
// encoding goes through the flat scan. buildIndex is called once fitting
// finishes.
func newKMeansNoIndex(flat []float64, k, d int) *KMeans {
	m := &KMeans{flat: flat, norms: make([]float64, k), k: k, d: d}
	m.refreshNorms()
	return m
}

func (m *KMeans) refreshNorms() {
	for i := 0; i < m.k; i++ {
		m.norms[i] = math.Sqrt(dot(m.centroid(i), m.centroid(i)))
	}
}

// centroid returns centroid i as a slice aliasing the flat buffer.
func (m *KMeans) centroid(i int) []float64 { return m.flat[i*m.d : (i+1)*m.d : (i+1)*m.d] }

// K returns the number of centroids (the code space size).
func (m *KMeans) K() int { return m.k }

// D returns the context dimension.
func (m *KMeans) D() int { return m.d }

// Centroid returns a copy of centroid i.
func (m *KMeans) Centroid(i int) []float64 {
	return append([]float64(nil), m.centroid(i)...)
}

// Decode returns the representative context of a code — its centroid. It
// makes KMeans a Decoder so centroid-learner agents and the server can map
// transmitted codes back into the context space. The returned slice is a
// fresh copy; hot paths should use DecodeTo with a reused buffer instead.
func (m *KMeans) Decode(code int) []float64 { return m.Centroid(code) }

// DecodeTo copies centroid code into dst and returns it, allocating only
// when dst is too short. It is the allocation-free decode used by the
// centroid learner and the server's ingestion path.
func (m *KMeans) DecodeTo(dst []float64, code int) []float64 {
	if cap(dst) < m.d {
		dst = make([]float64, m.d)
	}
	dst = dst[:m.d]
	copy(dst, m.centroid(code))
	return dst
}

// normSlack is the relative safety margin of the triangle-inequality
// pruning tests. The bounds hold exactly in real arithmetic; the margin
// absorbs the rounding of the precomputed norms and pivot distances so
// that a centroid is only skipped when its true distance provably exceeds
// the incumbent's. sqrtSlack is the same margin in sqrt space.
const normSlack = 1e-6

// dist4 is the canonical squared Euclidean distance of the encoder: four
// independent accumulators (breaking the floating-point dependency chain)
// reduced as (s0+s2)+(s1+s3). Every code path — naive scan, flat pruned
// scan and indexed search — compares exactly these values, which is what
// makes the prunings bit-exact.
func dist4(x, c []float64) float64 {
	n := len(x)
	c = c[:n]
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+4 <= n; j += 4 {
		d0 := x[j] - c[j]
		d1 := x[j+1] - c[j+1]
		d2 := x[j+2] - c[j+2]
		d3 := x[j+3] - c[j+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; j < n; j++ {
		dd := x[j] - c[j]
		s0 += dd * dd
	}
	return (s0 + s2) + (s1 + s3)
}

// dist10 is dist4 fully unrolled for the paper's synthetic dimension; its
// accumulation order is bit-identical to dist4 at n=10.
func dist10(x, c []float64) float64 {
	_ = x[9]
	c = c[:10]
	e0 := x[0] - c[0]
	e1 := x[1] - c[1]
	e2 := x[2] - c[2]
	e3 := x[3] - c[3]
	e4 := x[4] - c[4]
	e5 := x[5] - c[5]
	e6 := x[6] - c[6]
	e7 := x[7] - c[7]
	e8 := x[8] - c[8]
	e9 := x[9] - c[9]
	s0 := e0*e0 + e4*e4
	s1 := e1*e1 + e5*e5
	s2 := e2*e2 + e6*e6
	s3 := e3*e3 + e7*e7
	s0 += e8 * e8
	s0 += e9 * e9
	return (s0 + s2) + (s1 + s3)
}

// distFull dispatches to the unrolled kernel when the dimension allows.
func distFull(x, c []float64) float64 {
	if len(x) == 10 {
		return dist10(x, c)
	}
	return dist4(x, c)
}

// dist4Bound is dist4 with a partial-distance early exit every eight
// coordinates. Partial sums are monotone non-decreasing (floating-point
// addition of non-negative terms rounds monotonically) and the checkpoint
// reduction matches the final one, so a returned value >= bound implies the
// full dist4 would also be >= bound.
func dist4Bound(x, c []float64, bound float64) float64 {
	n := len(x)
	c = c[:n]
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+8 <= n; j += 8 {
		d0 := x[j] - c[j]
		d1 := x[j+1] - c[j+1]
		d2 := x[j+2] - c[j+2]
		d3 := x[j+3] - c[j+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		d0 = x[j+4] - c[j+4]
		d1 = x[j+5] - c[j+5]
		d2 = x[j+6] - c[j+6]
		d3 = x[j+7] - c[j+7]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		if (s0+s2)+(s1+s3) >= bound {
			return (s0 + s2) + (s1 + s3)
		}
	}
	for ; j+4 <= n; j += 4 {
		d0 := x[j] - c[j]
		d1 := x[j+1] - c[j+1]
		d2 := x[j+2] - c[j+2]
		d3 := x[j+3] - c[j+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; j < n; j++ {
		dd := x[j] - c[j]
		s0 += dd * dd
	}
	return (s0 + s2) + (s1 + s3)
}

// Encode returns the index of the nearest centroid by Euclidean distance,
// with ties resolved to the lowest index. Large encoders search through
// the triangle-inequality index; smaller ones (and encoders still being
// fitted) use the norm-pruned flat scan. Both return exactly the naive
// scan's answer.
func (m *KMeans) Encode(x []float64) int {
	if len(x) != m.d {
		panic(fmt.Sprintf("encoding: KMeans Encode dimension %d, want %d", len(x), m.d))
	}
	if m.idx != nil {
		return m.idx.encode(x)
	}
	return m.encodeFlat(x)
}

// encodeFlat is the index-free pruned scan: norm pruning plus
// partial-distance early exit over the flat buffer, in index order.
func (m *KMeans) encodeFlat(x []float64) int {
	d := m.d
	xn := math.Sqrt(dot(x, x))
	best, bestDist := 0, distFull(x, m.flat[:d])
	for i := 1; i < m.k; i++ {
		// Norm pruning: |x - c| >= | |x| - |c| |.
		gap := m.norms[i] - xn
		if lb := gap * gap; lb > bestDist*(1+normSlack) {
			continue
		}
		// The scan goes in index order, so an early exit (partial sum
		// already >= bestDist) can never hide a lower-index tie.
		s := dist4Bound(x, m.flat[i*d:(i+1)*d], bestDist)
		if s < bestDist {
			best, bestDist = i, s
		}
	}
	return best
}

// EncodeNaive is the reference brute-force nearest-centroid scan the pruned
// Encode is property-tested (and benchmarked) against.
func (m *KMeans) EncodeNaive(x []float64) int {
	if len(x) != m.d {
		panic(fmt.Sprintf("encoding: KMeans Encode dimension %d, want %d", len(x), m.d))
	}
	d := m.d
	best, bestDist := 0, math.Inf(1)
	for i := 0; i < m.k; i++ {
		if s := distFull(x, m.flat[i*d:(i+1)*d]); s < bestDist {
			best, bestDist = i, s
		}
	}
	return best
}

// indexMinK is the code-space size from which the grouped search index
// pays for its constant overhead.
const indexMinK = 128

// maxGroups bounds the group count so per-query group state fits on the
// stack and Encode stays allocation-free and concurrency-safe.
const maxGroups = 64

// searchIndex accelerates nearest-centroid search over a frozen centroid
// set. The centroids are clustered into groups; members are stored
// contiguously per group (cache locality), sorted by their distance to the
// group center. A query computes its distance gd to every group center,
// visits the nearest group first to establish a tight incumbent, and then
// prunes with dist(x, c_i) >= |gd - mdist_i|: the qualifying members of a
// group form a contiguous window around gd located by binary search. A
// secondary norm pivot (|x| vs |c_i|) filters the window further.
type searchIndex struct {
	g      int
	d      int
	center []float64 // g*d group centers
	start  []int     // group gi occupies rows start[gi]..start[gi+1]
	mp     []float64 // interleaved [dist-to-center, norm] per row
	codes  []int32   // row -> original centroid index
	pflat  []float64 // permuted centroid rows, group-contiguous
	maxRad float64   // largest member-to-center distance overall
}

// buildIndex (re)derives the search index from the flat buffer. Encoders
// below indexMinK skip it: the flat pruned scan wins there.
func (m *KMeans) buildIndex() {
	m.idx = nil
	if m.k < indexMinK {
		return
	}
	k, d := m.k, m.d
	g := int(1.5 * math.Sqrt(float64(k)))
	if g > maxGroups {
		g = maxGroups
	}
	if g < 8 {
		g = 8
	}
	// Group the centroids by fitting a small k-means over them, reusing
	// the package's own fitting machinery (the grouping is itself a
	// clustering problem; g < indexMinK so the inner fit never recurses
	// into index building). The index only affects speed, never results,
	// so a fixed seed keeps the whole encoder deterministic.
	views := make([][]float64, k)
	for i := range views {
		views[i] = m.centroid(i)
	}
	gm, err := FitKMeans(views, g, 25, 0, rng.New(0x9E3779B97F4A7C15))
	if err != nil {
		// Only empty data or g < 1 can fail, and neither occurs here.
		panic("encoding: grouping fit failed: " + err.Error())
	}
	center := gm.flat
	ix := &searchIndex{
		g:      g,
		d:      d,
		center: center,
		start:  make([]int, g+1),
		mp:     make([]float64, 2*k),
		codes:  make([]int32, k),
		pflat:  make([]float64, k*d),
	}
	// Lay out members group-contiguously, sorted by center distance.
	type member struct {
		code int
		dist float64
	}
	groups := make([][]member, g)
	for i := 0; i < k; i++ {
		a := gm.encodeFlat(views[i])
		dd := math.Sqrt(dist4(views[i], center[a*d:(a+1)*d]))
		groups[a] = append(groups[a], member{code: i, dist: dd})
		if dd > ix.maxRad {
			ix.maxRad = dd
		}
	}
	row := 0
	for gi := 0; gi < g; gi++ {
		ix.start[gi] = row
		ms := groups[gi]
		sort.Slice(ms, func(a, b int) bool {
			if ms[a].dist != ms[b].dist {
				return ms[a].dist < ms[b].dist
			}
			return ms[a].code < ms[b].code
		})
		for _, mb := range ms {
			copy(ix.pflat[row*d:(row+1)*d], m.centroid(mb.code))
			ix.codes[row] = int32(mb.code)
			ix.mp[2*row] = mb.dist
			ix.mp[2*row+1] = m.norms[mb.code]
			row++
		}
	}
	ix.start[g] = row
	m.idx = ix
}

// encode is the indexed nearest-centroid search. Exact full distances are
// always compared (no early exit inside the kernel), so the out-of-order
// group visiting still reproduces the naive scan's result: strictly-worse
// candidates are pruned, ties resolve through the explicit lowest-index
// rule.
func (ix *searchIndex) encode(x []float64) int {
	g, d := ix.g, ix.d
	var gdArr [maxGroups]float64
	gd := gdArr[:g]
	xn := math.Sqrt(dot(x, x))
	minG, minGD := 0, math.Inf(1)
	for gi := 0; gi < g; gi++ {
		v := math.Sqrt(distFull(x, ix.center[gi*d:(gi+1)*d]))
		gd[gi] = v
		if v < minGD {
			minG, minGD = gi, v
		}
	}
	// best starts at 0, not a sentinel: a non-finite context makes every
	// distance comparison false, and the naive scan returns 0 there too —
	// the index must match it (and must never emit an out-of-range code).
	best := 0
	bestDist := math.Inf(1)
	sb := math.Inf(1) // sqrt(bestDist * (1+normSlack)), the pruning radius
	pf := ix.pflat
	mp := ix.mp
	scan := func(gi int) {
		gdi := gd[gi]
		if gdi-ix.maxRad > sb {
			return
		}
		lo, hi := ix.start[gi], ix.start[gi+1]
		// Members qualify when |gdi - mdist| <= sb; mdist is sorted, so
		// they form a window starting at the first mdist >= gdi - sb.
		lof := gdi - sb
		a, b := lo, hi
		for a < b {
			mid := (a + b) / 2
			if mp[2*mid] < lof {
				a = mid + 1
			} else {
				b = mid
			}
		}
		for row := a; row < hi && mp[2*row]-gdi <= sb; row++ {
			if gap := mp[2*row+1] - xn; gap > sb || -gap > sb {
				continue
			}
			s := distFull(x, pf[row*d:(row+1)*d])
			if s < bestDist {
				best, bestDist = int(ix.codes[row]), s
				sb = math.Sqrt(s * (1 + normSlack))
			} else if s == bestDist && int(ix.codes[row]) < best {
				best = int(ix.codes[row])
			}
		}
	}
	scan(minG)
	for gi := 0; gi < g; gi++ {
		if gi != minG {
			scan(gi)
		}
	}
	return best
}

// Inertia returns the total squared distance of each point to its assigned
// centroid, the quantity Lloyd iterations monotonically decrease.
func (m *KMeans) Inertia(data [][]float64) float64 {
	total := 0.0
	for _, x := range data {
		total += dist2(x, m.centroid(m.Encode(x)))
	}
	return total
}

// ClusterSizes returns how many points of data land in each code. The
// minimum entry over non-empty clusters is the crowd-blending parameter l
// for a sub-optimal encoder (paper §4).
func (m *KMeans) ClusterSizes(data [][]float64) []int {
	sizes := make([]int, m.K())
	for _, x := range data {
		sizes[m.Encode(x)]++
	}
	return sizes
}

// MinClusterSize returns the size of the smallest non-empty cluster of
// data, i.e. the effective crowd-blending l. It returns 0 for empty data.
func (m *KMeans) MinClusterSize(data [][]float64) int {
	min := 0
	for _, s := range m.ClusterSizes(data) {
		if s == 0 {
			continue
		}
		if min == 0 || s < min {
			min = s
		}
	}
	return min
}

func dist2(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// kmeansPlusPlusInit chooses k initial centroids with the k-means++
// D^2-weighting scheme, writing them into a flat row-major buffer.
func kmeansPlusPlusInit(data [][]float64, k, d int, r *rng.Rand) []float64 {
	flat := make([]float64, k*d)
	copy(flat[:d], data[r.IntN(len(data))])
	dists := make([]float64, len(data))
	for i, x := range data {
		dists[i] = dist2(x, flat[:d])
	}
	for c := 1; c < k; c++ {
		total := 0.0
		for _, dd := range dists {
			total += dd
		}
		var next []float64
		if total <= 0 {
			// All points coincide with existing centroids; pick uniformly.
			next = data[r.IntN(len(data))]
		} else {
			u := r.Float64() * total
			acc := 0.0
			idx := len(data) - 1
			for i, dd := range dists {
				acc += dd
				if u < acc {
					idx = i
					break
				}
			}
			next = data[idx]
		}
		row := flat[c*d : (c+1)*d]
		copy(row, next)
		for i, x := range data {
			if dd := dist2(x, row); dd < dists[i] {
				dists[i] = dd
			}
		}
	}
	return flat
}

// FitKMeans runs Lloyd's algorithm with k-means++ initialization until the
// centroid movement drops below tol or maxIter iterations pass. It returns
// an error on empty data or k < 1; if k exceeds the number of points the
// extra centroids duplicate existing points (their clusters stay empty). A
// non-positive maxIter returns the k-means++ initialization unchanged; a
// non-positive tol never stops early.
func FitKMeans(data [][]float64, k, maxIter int, tol float64, r *rng.Rand) (*KMeans, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("encoding: FitKMeans on empty data")
	}
	if k < 1 {
		return nil, fmt.Errorf("encoding: FitKMeans needs k >= 1, got %d", k)
	}
	d := len(data[0])
	for i, x := range data {
		if len(x) != d {
			return nil, fmt.Errorf("encoding: FitKMeans point %d has dimension %d, want %d", i, len(x), d)
		}
	}
	m := newKMeansNoIndex(kmeansPlusPlusInit(data, k, d, r), k, d)
	assign := make([]int, len(data))
	sums := make([]float64, k*d)
	counts := make([]int, k)
	next := make([]float64, d)
	for iter := 0; iter < maxIter; iter++ {
		// Assignment step: pruned nearest-centroid search.
		for i, x := range data {
			assign[i] = m.encodeFlat(x)
		}
		// Update step, in point order.
		for i := range sums {
			sums[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		for i, x := range data {
			a := assign[i]
			counts[a]++
			row := sums[a*d : (a+1)*d]
			for j, v := range x {
				row[j] += v
			}
		}
		moved := 0.0
		for c := 0; c < k; c++ {
			row := m.flat[c*d : (c+1)*d]
			if counts[c] == 0 {
				// Empty cluster: reseed at the point farthest from its
				// centroid to split the largest-error region.
				far, farDist := 0, -1.0
				for i, x := range data {
					if dd := dist2(x, m.centroid(assign[i])); dd > farDist {
						far, farDist = i, dd
					}
				}
				moved += math.Sqrt(dist2(row, data[far]))
				copy(row, data[far])
				continue
			}
			inv := 1 / float64(counts[c])
			sum := sums[c*d : (c+1)*d]
			for j := range next {
				next[j] = sum[j] * inv
			}
			moved += math.Sqrt(dist2(row, next))
			copy(row, next)
		}
		m.refreshNorms()
		if moved < tol {
			break
		}
	}
	m.buildIndex()
	return m, nil
}

// FitMiniBatchKMeans implements web-scale mini-batch k-means (Sculley,
// WWW 2010): each iteration samples a batch, assigns it, and moves each
// centroid toward its batch members with a per-centroid learning rate
// 1/count. Initialization is k-means++ on a bounded sample.
func FitMiniBatchKMeans(data [][]float64, k, batchSize, iterations int, r *rng.Rand) (*KMeans, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("encoding: FitMiniBatchKMeans on empty data")
	}
	if k < 1 {
		return nil, fmt.Errorf("encoding: FitMiniBatchKMeans needs k >= 1, got %d", k)
	}
	if batchSize < 1 {
		return nil, fmt.Errorf("encoding: FitMiniBatchKMeans needs batchSize >= 1, got %d", batchSize)
	}
	d := len(data[0])
	initSample := data
	if len(initSample) > 10*k {
		idx := r.SampleWithoutReplacement(len(data), 10*k)
		initSample = make([][]float64, len(idx))
		for i, j := range idx {
			initSample[i] = data[j]
		}
	}
	m := newKMeansNoIndex(kmeansPlusPlusInit(initSample, k, d, r), k, d)
	counts := make([]float64, k)
	for iter := 0; iter < iterations; iter++ {
		for b := 0; b < batchSize; b++ {
			x := data[r.IntN(len(data))]
			c := m.encodeFlat(x)
			counts[c]++
			eta := 1 / counts[c]
			cent := m.centroid(c)
			for j, v := range x {
				cent[j] = (1-eta)*cent[j] + eta*v
			}
			// The moved centroid's cached norm must track the new position
			// or later pruned Encodes would use a stale bound.
			m.norms[c] = math.Sqrt(dot(cent, cent))
		}
	}
	m.buildIndex()
	return m, nil
}

// kmeansJSON is the serialized form of a KMeans encoder.
type kmeansJSON struct {
	D         int         `json:"d"`
	Centroids [][]float64 `json:"centroids"`
}

// MarshalJSON serializes the fitted encoder so it can be shipped to agents.
func (m *KMeans) MarshalJSON() ([]byte, error) {
	cents := make([][]float64, m.k)
	for i := range cents {
		cents[i] = m.centroid(i)
	}
	return json.Marshal(kmeansJSON{D: m.d, Centroids: cents})
}

// UnmarshalJSON restores a fitted encoder.
func (m *KMeans) UnmarshalJSON(b []byte) error {
	var j kmeansJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	if len(j.Centroids) == 0 {
		return fmt.Errorf("encoding: KMeans JSON has no centroids")
	}
	for i, c := range j.Centroids {
		if len(c) != j.D {
			return fmt.Errorf("encoding: KMeans JSON centroid %d has dimension %d, want %d", i, len(c), j.D)
		}
	}
	flat := make([]float64, len(j.Centroids)*j.D)
	for i, c := range j.Centroids {
		copy(flat[i*j.D:(i+1)*j.D], c)
	}
	*m = *newKMeans(flat, len(j.Centroids), j.D)
	return nil
}
