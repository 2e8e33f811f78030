// Package privacy implements the differential-privacy accounting of P2B
// (paper §4): the combination of Bernoulli pre-sampling with participation
// probability p and (l, 0)-crowd-blending yields an (epsilon, delta)-
// differentially-private mechanism with
//
//	epsilon = ln(p * (2-p)/(1-p) * e^epsBar + (1-p))       (Equation 2/3)
//	delta   = exp(-Omega * l * (1-p)^2)
//
// The package is the single statement of the mechanism the product runs:
// the valid range of p (CheckParticipation), a device's per-window
// participation draw (Participates), the shuffler's keep rule (InCrowd)
// and the default shuffler batch (DefaultBatchSize). The agent, the
// shuffler, the simulator and the node call these rather than restating
// them. Beside them sit the forward maps, the inverse map from a target
// epsilon to the participation probability, r-fold composition, a
// crowd-blending verifier for shuffled batches, and the per-user budget
// accountant.
package privacy

import (
	"fmt"
	"math"
	"sync"

	"p2b/internal/rng"
)

// CheckParticipation returns an error unless p is a valid participation
// probability, in [0, 1): p = 0 shares nothing, and epsilon diverges as p
// approaches 1. NaN is rejected too.
func CheckParticipation(p float64) error {
	if !(p >= 0 && p < 1) {
		return fmt.Errorf("participation probability %v outside [0, 1)", p)
	}
	return nil
}

// Participates is the randomized data reporting step (§3.1): one
// Bernoulli(p) trial on the caller's stream, deciding whether a device
// shares a tuple from the interaction window the stream belongs to.
func Participates(p float64, r *rng.Rand) bool { return r.Bernoulli(p) }

// InCrowd is the crowd-blending rule the shuffler's thresholding step
// applies (§3.3): a tuple whose code occurs count times in its shuffled
// batch is released iff count >= l, so every released code hides in a
// crowd of at least l.
func InCrowd(count, l int) bool { return count >= l }

// DefaultBatchSize returns the shuffler batch size used when none is
// configured, for k codes and crowd-blending threshold l:
// max(256, 4*l*k). A code's mean count in such a batch is batch/k = 4*l,
// so an average code clears the threshold with margin; the reproduced
// figures are measured under this rule.
func DefaultBatchSize(k, l int) int { return max(256, 4*l*k) }

// Epsilon returns the differential-privacy epsilon achieved by sampling
// with participation probability p followed by (l, 0)-crowd-blending
// (Equation 3). Epsilon(0) = 0 (nothing is ever shared) and Epsilon(p)
// diverges as p approaches 1. It panics if p is outside [0, 1).
func Epsilon(p float64) float64 {
	return EpsilonGeneral(p, 0)
}

// EpsilonGeneral returns Equation 2's epsilon for an encoder satisfying
// (l, epsBar)-crowd-blending. P2B's encoder releases identical values for
// every member of a crowd, so epsBar = 0 in all of the paper's experiments.
func EpsilonGeneral(p, epsBar float64) float64 {
	if err := CheckParticipation(p); err != nil {
		panic("privacy: " + err.Error())
	}
	if epsBar < 0 {
		panic("privacy: crowd-blending epsilon must be >= 0")
	}
	if p == 0 {
		return 0
	}
	return math.Log(p*(2-p)/(1-p)*math.Exp(epsBar) + (1 - p))
}

// Delta returns the delta parameter exp(-omega * l * (1-p)^2) for
// crowd-blending size l. The constant omega comes from the analysis of
// Gehrke et al. 2012; the paper treats it as a fixed constant, and callers
// that only need the qualitative behaviour can use DefaultOmega.
func Delta(l int, p, omega float64) float64 {
	if l < 0 {
		panic("privacy: crowd size must be >= 0")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("privacy: participation probability %v outside [0, 1]", p))
	}
	q := 1 - p
	return math.Exp(-omega * float64(l) * q * q)
}

// DefaultOmega is a conventional value for the constant in the delta bound,
// used when only the exponential decay in l matters.
const DefaultOmega = 1.0

// ParticipationForEpsilon returns the largest participation probability p
// whose Epsilon(p) does not exceed the target, found by bisection. It
// panics if target < 0.
func ParticipationForEpsilon(target float64) float64 {
	if target < 0 {
		panic("privacy: target epsilon must be >= 0")
	}
	if target == 0 {
		return 0
	}
	lo, hi := 0.0, 1-1e-12
	if Epsilon(hi) <= target {
		return hi
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if Epsilon(mid) <= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Compose returns the epsilon guarantee after a user contributes r tuples,
// by the basic composition theorem: r disclosures at epsilon each cost
// r*epsilon in total.
func Compose(eps float64, r int) float64 {
	if r < 0 {
		panic("privacy: composition count must be >= 0")
	}
	return float64(r) * eps
}

// AdvancedCompose returns the epsilon guarantee of r disclosures at epsilon
// each under the advanced composition theorem (Dwork, Rothblum, Vadhan
// 2010): for any deltaSlack > 0 the composition is
//
//	eps' = sqrt(2 r ln(1/deltaSlack)) * eps + r * eps * (e^eps - 1)
//
// differentially private with an additional deltaSlack. For small eps and
// moderate r this is substantially tighter than basic composition; callers
// should take the minimum of both bounds, which this function returns.
func AdvancedCompose(eps float64, r int, deltaSlack float64) float64 {
	if r < 0 {
		panic("privacy: composition count must be >= 0")
	}
	if deltaSlack <= 0 || deltaSlack >= 1 {
		panic("privacy: delta slack must be in (0, 1)")
	}
	if r == 0 || eps == 0 {
		return 0
	}
	basic := Compose(eps, r)
	advanced := math.Sqrt(2*float64(r)*math.Log(1/deltaSlack))*eps +
		float64(r)*eps*(math.Exp(eps)-1)
	return math.Min(basic, advanced)
}

// MinCrowd returns the smallest frequency among the codes present in the
// batch, i.e. the realized crowd-blending parameter l. It returns 0 for an
// empty batch.
func MinCrowd(codes []int) int {
	if len(codes) == 0 {
		return 0
	}
	freq := map[int]int{}
	for _, c := range codes {
		freq[c]++
	}
	min := 0
	for _, n := range freq {
		if min == 0 || n < min {
			min = n
		}
	}
	return min
}

// VerifyCrowdBlending reports whether every code in the batch appears at
// least l times — the invariant the shuffler's thresholding step must
// establish before data reaches the server. An empty batch satisfies any l.
func VerifyCrowdBlending(codes []int, l int) bool {
	return len(codes) == 0 || InCrowd(MinCrowd(codes), l)
}

// Accountant tracks per-user disclosure counts and reports composed budgets.
// The pipeline registers one event per tuple that a user actually submits;
// Budget then applies basic composition. Accountant is safe for concurrent
// use.
type Accountant struct {
	mu      sync.Mutex
	eps     float64
	counts  map[string]int
	maxUser string
}

// NewAccountant returns an accountant for a mechanism whose per-disclosure
// privacy cost is eps.
func NewAccountant(eps float64) *Accountant {
	if eps < 0 {
		panic("privacy: accountant epsilon must be >= 0")
	}
	return &Accountant{eps: eps, counts: map[string]int{}}
}

// Record notes that the user disclosed one tuple.
func (a *Accountant) Record(userID string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.counts[userID]++
	if a.maxUser == "" || a.counts[userID] > a.counts[a.maxUser] {
		a.maxUser = userID
	}
}

// Budget returns the composed epsilon consumed by the user so far.
func (a *Accountant) Budget(userID string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Compose(a.eps, a.counts[userID])
}

// WorstCase returns the largest composed epsilon across all users and the
// user that incurred it. A fresh accountant reports ("", 0).
func (a *Accountant) WorstCase() (string, float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.maxUser == "" {
		return "", 0
	}
	return a.maxUser, Compose(a.eps, a.counts[a.maxUser])
}

// Users returns how many distinct users have disclosed at least one tuple.
func (a *Accountant) Users() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.counts)
}
