// Package hashing implements the feature-hashing trick of Weinberger et al.
// (ICML 2009) on 32-bit FNV-1a, the substrate the ad-log pipeline uses to
// reduce 26 categorical features to a single product code and to embed
// categorical values into fixed-width vectors.
package hashing

import (
	"hash/fnv"
	"sort"
)

// Hash32 returns the 32-bit FNV-1a hash of s.
func Hash32(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// Bucket maps the (field, value) pair into one of n buckets. Including the
// field name keeps identical values in different columns independent, the
// standard multitask hashing construction.
func Bucket(field, value string, n int) int {
	if n <= 0 {
		panic("hashing: Bucket needs n > 0")
	}
	return int(Hash32(field+"\x00"+value) % uint32(n))
}

// Sign returns +1 or -1 for the (field, value) pair, derived from an
// independent bit of a second hash. The signed hashing trick makes the
// hashed inner product an unbiased estimator of the original one.
func Sign(field, value string) float64 {
	if Hash32("\x01sign\x00"+field+"\x00"+value)&1 == 0 {
		return 1
	}
	return -1
}

// Vectorize embeds the categorical feature map into a dense vector of width
// n using signed feature hashing: each (field, value) adds Sign to its
// bucket.
func Vectorize(features map[string]string, n int) []float64 {
	v := make([]float64, n)
	for field, value := range features {
		v[Bucket(field, value, n)] += Sign(field, value)
	}
	return v
}

// Combine reduces an ordered list of categorical values into one 32-bit
// code by chained FNV hashing. The ad-log substrate uses it to map the 26
// categorical columns of a record to a single candidate product code, as the
// paper does with the Criteo columns.
func Combine(values []string) uint32 {
	h := fnv.New32a()
	for _, v := range values {
		h.Write([]byte(v))
		h.Write([]byte{0})
	}
	return h.Sum32()
}

// TopK maps raw codes to compact labels 0..k-1 by frequency: label 0 is the
// most frequent code and so on, mirroring the paper's reduction of hashed
// Criteo categories to the 40 most frequent. Codes outside the top k map to
// -1 and should be discarded by the caller.
type TopK struct {
	k     int
	label map[uint32]int
}

// NewTopK builds the frequency table from the observed raw codes. Ties are
// broken by code value for determinism.
func NewTopK(codes []uint32, k int) *TopK {
	if k <= 0 {
		panic("hashing: NewTopK needs k > 0")
	}
	counts := map[uint32]int{}
	for _, c := range codes {
		counts[c]++
	}
	type cc struct {
		code  uint32
		count int
	}
	all := make([]cc, 0, len(counts))
	for c, n := range counts {
		all = append(all, cc{c, n})
	}
	// Total order (count desc, code asc) keeps the labelling deterministic.
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].code < all[j].code
	})
	retain := k
	if retain > len(all) {
		retain = len(all)
	}
	label := make(map[uint32]int, retain)
	for i := 0; i < retain; i++ {
		label[all[i].code] = i
	}
	return &TopK{k: k, label: label}
}

// K returns the configured label-space size. When fewer distinct codes were
// observed than k, labels beyond the observed count are simply never
// produced.
func (t *TopK) K() int { return t.k }

// Label returns the compact label of code, or -1 if the code is not among
// the top k.
func (t *TopK) Label(code uint32) int {
	if l, ok := t.label[code]; ok {
		return l
	}
	return -1
}
