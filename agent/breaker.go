// Client-side circuit breaking. When a node is down or melting, every
// request a device sends it costs a connection attempt, a timeout and a
// retry ladder — multiplied by the fleet. The breaker cuts that short:
// after a run of consecutive failures it opens and refuses requests
// locally; after a cooldown it lets exactly one probe through, and only a
// probe success closes it again. HTTPTransport and HTTPSource both accept a
// breaker; sharing one instance lets the report path and the model-sync
// path learn about an outage from each other's traffic.
package agent

import (
	"errors"
	"sync"
	"time"
)

// ErrBreakerOpen is returned (wrapped) by operations refused locally
// because the circuit breaker is open.
var ErrBreakerOpen = errors.New("agent: circuit breaker open")

// BreakerState is the classic three-state machine.
type BreakerState int

const (
	// BreakerClosed: requests flow, consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests are refused locally until the cooldown ends.
	BreakerOpen
	// BreakerHalfOpen: one probe request is in flight; its outcome decides
	// between closing and re-opening.
	BreakerHalfOpen
)

// String names the state for logs and stats.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "breaker(?)"
	}
}

// BreakerConfig tunes a CircuitBreaker. The zero value selects defaults.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive failures open the breaker
	// (default 5).
	FailureThreshold int
	// OpenFor is the cooldown before an open breaker admits a half-open
	// probe (default 5s).
	OpenFor time.Duration

	// now substitutes the clock in tests. Nil means time.Now.
	now func() time.Time
}

// BreakerStats counts a breaker's decisions.
type BreakerStats struct {
	State    string `json:"state"`
	Failures int    `json:"failures"` // consecutive failures in the current run
	Opens    int64  `json:"opens"`    // closed/half-open -> open transitions
	Rejected int64  `json:"rejected"` // requests refused locally
}

// CircuitBreaker is a concurrency-safe three-state breaker. A nil
// *CircuitBreaker admits everything, so wiring one in is always optional.
type CircuitBreaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	opens    int64
	rejected int64
}

// NewCircuitBreaker returns a closed breaker with cfg's thresholds.
func NewCircuitBreaker(cfg BreakerConfig) *CircuitBreaker {
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 5
	}
	if cfg.OpenFor <= 0 {
		cfg.OpenFor = 5 * time.Second
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &CircuitBreaker{cfg: cfg}
}

// Allow reports whether a request may proceed now. Every true result MUST
// be matched by exactly one Record call with the request's outcome —
// half-open reserves the single probe slot on Allow, and only Record
// releases it.
func (cb *CircuitBreaker) Allow() bool {
	if cb == nil {
		return true
	}
	cb.mu.Lock()
	defer cb.mu.Unlock()
	switch cb.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if cb.cfg.now().Sub(cb.openedAt) >= cb.cfg.OpenFor {
			cb.state = BreakerHalfOpen
			cb.probing = true
			return true
		}
		cb.rejected++
		return false
	default: // BreakerHalfOpen
		if cb.probing {
			cb.rejected++
			return false
		}
		cb.probing = true
		return true
	}
}

// Record feeds one request outcome into the state machine. Success closes
// the breaker and zeroes the failure run; failure re-opens a half-open
// breaker immediately and opens a closed one at the threshold.
func (cb *CircuitBreaker) Record(success bool) {
	if cb == nil {
		return
	}
	cb.mu.Lock()
	defer cb.mu.Unlock()
	cb.probing = false
	if success {
		cb.state = BreakerClosed
		cb.failures = 0
		return
	}
	cb.failures++
	if cb.state == BreakerHalfOpen || (cb.state == BreakerClosed && cb.failures >= cb.cfg.FailureThreshold) {
		cb.state = BreakerOpen
		cb.openedAt = cb.cfg.now()
		cb.opens++
	}
}

// State returns the current state (re-deriving half-open from an expired
// cooldown is Allow's job; State reports the stored machine state).
func (cb *CircuitBreaker) State() BreakerState {
	if cb == nil {
		return BreakerClosed
	}
	cb.mu.Lock()
	defer cb.mu.Unlock()
	return cb.state
}

// Stats snapshots the breaker's counters.
func (cb *CircuitBreaker) Stats() BreakerStats {
	if cb == nil {
		return BreakerStats{State: BreakerClosed.String()}
	}
	cb.mu.Lock()
	defer cb.mu.Unlock()
	return BreakerStats{
		State:    cb.state.String(),
		Failures: cb.failures,
		Opens:    cb.opens,
		Rejected: cb.rejected,
	}
}
