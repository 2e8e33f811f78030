// Board-driven failover for the report path. A device fleet discovers its
// relay from the bulletin board once; when that relay dies mid-run, every
// report would fail until an operator re-points the fleet. The
// FailoverTransport closes that gap: it owns discovery, and when the
// current target's circuit breaker trips open it re-fetches the board,
// filters to live candidates (fresh heartbeat, not self-declared
// degraded), deterministically re-picks a target excluding the dead one,
// and swaps transports under the caller — the agents above it never see
// the topology change.
package agent

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"p2b/internal/topology"
)

// FailoverOptions tunes a FailoverTransport.
type FailoverOptions struct {
	// Seed drives the deterministic target pick, exactly as a fleet
	// launcher passes it to topology.Pick: one seed, one target, and a
	// fleet with spread seeds spreads across the relay tier (default 1).
	Seed uint64
	// MaxAge drops discovery candidates whose board heartbeat is older.
	// Zero keeps every non-degraded candidate regardless of heartbeat age
	// (the board's own TTL already bounds staleness).
	MaxAge time.Duration
	// Transport configures each target's underlying HTTPTransport. Its
	// Breaker field is ignored: every target gets a fresh breaker built
	// from Breaker below — breaker state describes one node, and carrying
	// an open breaker to a healthy replacement would refuse its traffic.
	Transport HTTPTransportOptions
	// Breaker tunes the per-target circuit breaker (zero value =
	// NewCircuitBreaker defaults).
	Breaker BreakerConfig
	// Logf, if non-nil, receives discovery and failover events.
	Logf func(format string, args ...any)
}

// FailoverStatus is a snapshot of a FailoverTransport's discovery state.
type FailoverStatus struct {
	// Node and URL identify the current report target.
	Node string `json:"node"`
	URL  string `json:"url"`
	// Discoveries counts board fetches (the initial one and every
	// failover attempt's re-fetch).
	Discoveries int64 `json:"discoveries"`
	// Failovers counts completed target swaps.
	Failovers int64 `json:"failovers"`
	// LastError is the most recent failed failover attempt, empty after
	// a success.
	LastError string `json:"last_error,omitempty"`
}

// FailoverTransport is an HTTPTransport with board-driven discovery and
// breaker-integrated failover. It exposes the same method set, so callers
// swap it in wherever an HTTPTransport is used. Reports that fail with
// ErrBreakerOpen trigger one failover attempt and one retry against the
// new target; any other error passes through untouched — transient
// failures belong to the HTTPTransport's own retry ladder.
type FailoverTransport struct {
	board string
	opts  FailoverOptions

	// fmu serializes failover attempts so a burst of breaker-open reports
	// triggers one board fetch, not one per report.
	fmu sync.Mutex

	mu   sync.Mutex
	cur  *HTTPTransport
	name string
	gen  uint64 // bumped on every swap; stale failover attempts no-op
	st   FailoverStatus
}

// NewFailoverTransport discovers a report target on the board at boardURL
// and returns a transport pointed at it. Callers must Close it to flush
// the batching tail, exactly as with a plain HTTPTransport.
func NewFailoverTransport(boardURL string, opts FailoverOptions) (*FailoverTransport, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	f := &FailoverTransport{board: boardURL, opts: opts}
	n, err := f.discover(nil)
	if err != nil {
		return nil, err
	}
	f.cur = f.build(n)
	f.name = n.Name
	f.st.Node, f.st.URL = n.Name, n.URL
	return f, nil
}

// discover fetches the board and picks a live report target, excluding
// any node named in exclude. The caller must not hold f.mu.
func (f *FailoverTransport) discover(exclude map[string]bool) (topology.Node, error) {
	f.mu.Lock()
	f.st.Discoveries++
	f.mu.Unlock()
	doc, err := topology.FetchDocument(f.board)
	if err != nil {
		return topology.Node{}, err
	}
	candidates := topology.Alive(doc.ReportTargets(), f.opts.MaxAge, time.Now())
	var live []topology.Node
	for _, n := range candidates {
		if !exclude[n.Name] {
			live = append(live, n)
		}
	}
	n, err := topology.Pick(live, f.opts.Seed)
	if err != nil {
		return topology.Node{}, fmt.Errorf("agent: no live report target on %s: %w", f.board, err)
	}
	return n, nil
}

// build constructs the per-target transport with a fresh breaker.
func (f *FailoverTransport) build(n topology.Node) *HTTPTransport {
	topts := f.opts.Transport
	topts.Breaker = NewCircuitBreaker(f.opts.Breaker)
	return NewHTTPTransport(n.URL, topts)
}

// current returns the live transport and its generation.
func (f *FailoverTransport) current() (*HTTPTransport, uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cur, f.gen
}

// failover re-discovers and swaps targets. gen is the generation the
// caller observed failing: if another goroutine already swapped, this
// attempt is a no-op and the caller just retries on the new target.
func (f *FailoverTransport) failover(gen uint64) error {
	f.fmu.Lock()
	defer f.fmu.Unlock()
	f.mu.Lock()
	if f.gen != gen {
		f.mu.Unlock()
		return nil
	}
	dead := f.name
	old := f.cur
	f.mu.Unlock()

	n, err := f.discover(map[string]bool{dead: true})
	if err != nil {
		f.mu.Lock()
		f.st.LastError = err.Error()
		f.mu.Unlock()
		return err
	}
	next := f.build(n)
	f.mu.Lock()
	f.cur = next
	f.name = n.Name
	f.gen++
	f.st.Failovers++
	f.st.Node, f.st.URL = n.Name, n.URL
	f.st.LastError = ""
	f.mu.Unlock()
	// Settle the dead transport off the swap path. Its breaker is open,
	// so buffered batches fail fast instead of hanging the close; what
	// they held is gone either way — the node is down.
	if err := old.Close(); err != nil {
		f.opts.Logf("agent: closing failed transport for %q: %v", dead, err)
	}
	f.opts.Logf("agent: failed over reports from %q to %q (%s)", dead, n.Name, n.URL)
	return nil
}

// Report submits one envelope to the current target. A breaker-open
// refusal triggers one failover and one retry; everything else (including
// the target's exhausted-retry errors) passes through.
func (f *FailoverTransport) Report(e Envelope) error {
	tr, gen := f.current()
	err := tr.Report(e)
	if err == nil || !errors.Is(err, ErrBreakerOpen) {
		return err
	}
	if ferr := f.failover(gen); ferr != nil {
		// The original refusal is the caller-relevant error; the failed
		// rescue attempt is visible in Status().LastError.
		return err
	}
	tr, _ = f.current()
	return tr.Report(e)
}

// ReportRaw submits one unencoded observation to the current target.
func (f *FailoverTransport) ReportRaw(rt RawTuple) error {
	tr, _ := f.current()
	return tr.ReportRaw(rt)
}

// Flush settles the current target's client-side batching.
func (f *FailoverTransport) Flush() error {
	tr, _ := f.current()
	return tr.Flush()
}

// FlushNode flushes client batching, then the node's shuffler batch.
func (f *FailoverTransport) FlushNode() error {
	tr, _ := f.current()
	return tr.FlushNode()
}

// Close flushes the tail and stops the current target's senders.
func (f *FailoverTransport) Close() error {
	tr, _ := f.current()
	return tr.Close()
}

// Stats returns the CURRENT target's delivery counters. They restart from
// zero on failover — they describe one transport's lifetime, and stitching
// two nodes' counters together would hide the reset an operator should see.
func (f *FailoverTransport) Stats() BatchStats {
	tr, _ := f.current()
	return tr.Stats()
}

// Status returns a snapshot of the discovery and failover counters.
func (f *FailoverTransport) Status() FailoverStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

var _ interface {
	Transport
	RawReporter
} = (*FailoverTransport)(nil)
