// The node side of board registration: a Heartbeat announces one node on
// the bulletin board and keeps the announcement alive. Startup is the
// fragile moment — board and nodes race each other out of a rack power
// cycle — so the first registration retries on its own jittered backoff
// instead of waiting a full beat, and every attempt is counted so the
// node's health surface can say whether the fleet can actually find it.
package topology

import (
	"sync"
	"time"

	"p2b/internal/rng"
	"p2b/internal/transport"
)

// HeartbeatStatus is the board-registration health of one node: how many
// announcements it attempted, how many the board refused or never
// received, and whether it has ever made it onto the board this boot.
type HeartbeatStatus struct {
	// Attempts counts every registration sent: the startup retries and
	// the steady-state beats.
	Attempts uint64 `json:"attempts"`
	// Failures counts attempts the board refused or that never reached
	// it. Failures == Attempts means the node is invisible to discovery.
	Failures uint64 `json:"failures"`
	// Registered is true once any attempt has succeeded this boot.
	Registered bool `json:"registered"`
	// LastError is the most recent failure, empty after a success.
	LastError string `json:"last_error,omitempty"`
	// LastOKUnixNano is when the last successful announcement happened,
	// zero if none has.
	LastOKUnixNano int64 `json:"last_ok_unix_nano,omitempty"`
}

// HeartbeatOptions tunes a Heartbeat.
type HeartbeatOptions struct {
	// TTL is the board-side announcement TTL; beats go out every TTL/3
	// once registered. Zero or negative selects DefaultTTL.
	TTL time.Duration
	// Logf, if non-nil, receives registration failures.
	Logf func(format string, args ...any)
	// Degraded, if non-nil, is sampled before every announcement and
	// published as the node's Degraded flag, letting discovery steer
	// agents away from a node that is up but limping.
	Degraded func() bool
}

// Heartbeat keeps one node's announcement alive on the bulletin board.
// Construct with NewHeartbeat, then Start. The zero value is not usable.
type Heartbeat struct {
	board string
	node  Node
	ttl   time.Duration
	logf  func(format string, args ...any)
	probe func() bool
	// retry is the startup registration ladder. Its jitter stream derives
	// from the node name, so a rack of nodes rebooting together spreads its
	// retries instead of hammering the board in lockstep.
	retry transport.Ladder

	stop chan struct{}
	done chan struct{}
	once sync.Once

	mu      sync.Mutex
	started bool
	st      HeartbeatStatus
}

// NewHeartbeat prepares (but does not start) a heartbeat announcing n on
// the board at boardURL. The handle's Status is valid immediately, so it
// can be wired into a health surface before the loop runs.
func NewHeartbeat(boardURL string, n Node, opts HeartbeatOptions) *Heartbeat {
	ttl := opts.TTL
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// Startup backoff: begin well under a beat and double up to the beat
	// interval; the floor keeps a tiny test TTL from busy-looping.
	base := ttl / 30
	if base < 50*time.Millisecond {
		base = 50 * time.Millisecond
	}
	stop := make(chan struct{})
	return &Heartbeat{
		board: boardURL,
		node:  n,
		ttl:   ttl,
		logf:  logf,
		probe: opts.Degraded,
		retry: transport.NewBackoff(base, ttl/3, rng.New(1).Split("board-heartbeat").Split(n.Name), stop).Ladder(),
		stop:  stop,
		done:  make(chan struct{}),
	}
}

// Start launches the announcement loop. Until the first registration
// succeeds it retries on a jittered exponential backoff (capped at one
// beat interval) — a node that boots before its board must appear the
// moment the board does, not up to a full beat later. After that it
// announces every TTL/3, and failures wait for the next beat: the board
// never sits on the data path, so losing it is never worth tighter loops.
func (h *Heartbeat) Start() {
	h.mu.Lock()
	h.started = true
	h.mu.Unlock()
	go h.run()
}

// Stop ends the loop and waits for it to exit. Safe to call more than
// once, and a no-op when the loop was never started.
func (h *Heartbeat) Stop() {
	h.once.Do(func() { close(h.stop) })
	h.mu.Lock()
	started := h.started
	h.mu.Unlock()
	if started {
		<-h.done
	}
}

// Status returns a snapshot of the registration counters.
func (h *Heartbeat) Status() HeartbeatStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.st
}

func (h *Heartbeat) run() {
	defer close(h.done)
	for h.register() != nil {
		h.retry.Wait()
		select {
		case <-h.stop:
			return
		default:
		}
	}
	t := time.NewTicker(h.ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
			_ = h.register()
		}
	}
}

// register sends one announcement, sampling the degrade probe so the
// board always reflects the node's current mode, and folds the outcome
// into the status counters.
func (h *Heartbeat) register() error {
	n := h.node
	if h.probe != nil {
		n.Degraded = h.probe()
	}
	err := RegisterNode(h.board, n)
	h.mu.Lock()
	h.st.Attempts++
	if err != nil {
		h.st.Failures++
		h.st.LastError = err.Error()
	} else {
		h.st.Registered = true
		h.st.LastError = ""
		h.st.LastOKUnixNano = wallClock().UnixNano()
	}
	h.mu.Unlock()
	if err != nil {
		h.logf("topology: board registration: %v", err)
	}
	return err
}
