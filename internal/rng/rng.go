// Package rng provides deterministic, seedable random number generation for
// the P2B simulator.
//
// Every stochastic component of the system (environments, agents, the
// participation sampler, the shuffler) draws from an rng.Rand so that whole
// experiments are reproducible from a single root seed. Substreams derived
// with Split are statistically independent and stable across runs, which
// keeps concurrent simulations deterministic regardless of goroutine
// scheduling.
package rng

import (
	"fmt"
	"hash/fnv"
	"math"
	randv2 "math/rand/v2"
)

// Rand is a deterministic random stream. It wraps a PCG generator from
// math/rand/v2 and adds the distributions the simulator needs.
type Rand struct {
	src *randv2.Rand
	pcg *randv2.PCG
	// seed material retained so substreams can be derived deterministically.
	hi, lo uint64
}

// New returns a stream seeded with seed. Two streams built from the same
// seed produce identical sequences.
func New(seed uint64) *Rand {
	return newFrom(seed, seed^0x9e3779b97f4a7c15)
}

func newFrom(hi, lo uint64) *Rand {
	pcg := randv2.NewPCG(hi, lo)
	return &Rand{src: randv2.New(pcg), pcg: pcg, hi: hi, lo: lo}
}

// MarshalBinary captures the stream's complete state: the seed material
// (which Split derivations depend on) and the current PCG position. A
// stream restored with UnmarshalBinary continues the exact sequence the
// captured stream would have produced, which is what lets a checkpointed
// shuffler resume its permutation stream after a crash.
func (r *Rand) MarshalBinary() ([]byte, error) {
	pcgState, err := r.pcg.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 16, 16+len(pcgState))
	putUint64(out[0:8], r.hi)
	putUint64(out[8:16], r.lo)
	return append(out, pcgState...), nil
}

// UnmarshalBinary restores state captured by MarshalBinary.
func (r *Rand) UnmarshalBinary(data []byte) error {
	if len(data) < 16 {
		return fmt.Errorf("rng: state too short (%d bytes)", len(data))
	}
	hi := getUint64(data[0:8])
	lo := getUint64(data[8:16])
	pcg := randv2.NewPCG(hi, lo)
	if err := pcg.UnmarshalBinary(data[16:]); err != nil {
		return fmt.Errorf("rng: restoring PCG state: %w", err)
	}
	r.hi, r.lo = hi, lo
	r.pcg = pcg
	r.src = randv2.New(pcg)
	return nil
}

// Split derives an independent substream identified by label. Splitting is a
// pure function of the parent's seed material and the label: it does not
// consume randomness from the parent, so the order in which substreams are
// created never perturbs results.
func (r *Rand) Split(label string) *Rand {
	h := fnv.New64a()
	var b [16]byte
	putUint64(b[0:8], r.hi)
	putUint64(b[8:16], r.lo)
	h.Write(b[:])
	h.Write([]byte(label))
	d := h.Sum64()
	return newFrom(r.hi^d, r.lo^(d*0xff51afd7ed558ccd+1))
}

// SplitIndex derives an independent substream identified by an integer,
// convenient for per-agent streams.
func (r *Rand) SplitIndex(label string, i int) *Rand {
	h := fnv.New64a()
	var b [24]byte
	putUint64(b[0:8], r.hi)
	putUint64(b[8:16], r.lo)
	putUint64(b[16:24], uint64(i))
	h.Write(b[:])
	h.Write([]byte(label))
	d := h.Sum64()
	return newFrom(r.hi^d, r.lo^(d*0xc4ceb9fe1a85ec53+1))
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getUint64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// Float64 returns a uniform sample from [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform sample from {0, ..., n-1}. It panics if n <= 0.
func (r *Rand) IntN(n int) int { return r.src.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Uint64N returns a uniform sample from {0, ..., n-1}: the draw Shuffle
// makes for each swap. It panics if n == 0.
func (r *Rand) Uint64N(n uint64) uint64 { return r.src.Uint64N(n) }

// Perm returns a uniform random permutation of {0, ..., n-1}.
func (r *Rand) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle performs an in-place Fisher-Yates shuffle of n elements using the
// provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Bernoulli returns true with probability p. Values of p outside [0, 1] are
// clamped.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// Norm returns a Gaussian sample with the given mean and standard deviation.
func (r *Rand) Norm(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}

// Gamma returns a sample from the Gamma distribution with the given shape
// and scale 1, using the Marsaglia-Tsang squeeze method. shape must be > 0.
func (r *Rand) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("rng: Gamma shape must be positive")
	}
	if shape < 1 {
		// Boost to shape+1 and correct with a uniform power.
		u := r.src.Float64()
		for u == 0 {
			u = r.src.Float64()
		}
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.src.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.src.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet returns a sample from the Dirichlet distribution with the given
// concentration parameters. The result has the same length as alpha and sums
// to 1.
func (r *Rand) Dirichlet(alpha []float64) []float64 {
	out := make([]float64, len(alpha))
	sum := 0.0
	for i, a := range alpha {
		g := r.Gamma(a)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		// Degenerate draw (possible for tiny alphas); fall back to uniform.
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Simplex returns a uniform sample from the (d-1)-dimensional probability
// simplex, i.e. a Dirichlet(1, ..., 1) draw. This is the paper's model for
// normalized context vectors.
func (r *Rand) Simplex(d int) []float64 {
	alpha := make([]float64, d)
	for i := range alpha {
		alpha[i] = 1
	}
	return r.Dirichlet(alpha)
}

// Categorical returns an index sampled proportionally to the non-negative
// weights. It panics if the weights sum to zero or are empty.
func (r *Rand) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: Categorical weight must be non-negative")
		}
		total += w
	}
	if total <= 0 || len(weights) == 0 {
		panic("rng: Categorical weights must sum to a positive value")
	}
	u := r.src.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Zipf is a sampler over {0, ..., n-1} with probability proportional to
// 1/(i+1)^s. The logged ad substrate uses it to model popularity-skewed
// product categories.
type Zipf struct {
	cdf []float64
	r   *Rand
}

// NewZipf builds a Zipf sampler with exponent s over n categories, drawing
// randomness from r. It panics if n <= 0 or s < 0.
func NewZipf(r *Rand, s float64, n int) *Zipf {
	if n <= 0 {
		panic("rng: Zipf needs n > 0")
	}
	if s < 0 {
		panic("rng: Zipf needs s >= 0")
	}
	cdf := make([]float64, n)
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += 1 / math.Pow(float64(i+1), s)
		cdf[i] = acc
	}
	for i := range cdf {
		cdf[i] /= acc
	}
	return &Zipf{cdf: cdf, r: r}
}

// Draw samples one category index.
func (z *Zipf) Draw() int {
	u := z.r.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Prob returns the probability mass of category i.
func (z *Zipf) Prob(i int) float64 {
	if i < 0 || i >= len(z.cdf) {
		return 0
	}
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}

// NormVec fills a slice with d independent N(0, stddev) samples.
func (r *Rand) NormVec(d int, stddev float64) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = stddev * r.src.NormFloat64()
	}
	return v
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// {0, ..., n-1} via a partial Fisher-Yates shuffle. It panics if k > n.
func (r *Rand) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("rng: SampleWithoutReplacement requires k <= n")
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
