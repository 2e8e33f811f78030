// The one retry step every HTTP sender in the fleet takes: which statuses
// are worth resending, how a Retry-After header reads, and how long to
// wait between attempts. The SDK's batching client, the relay forwarder
// and the board heartbeat share it, so a shed (429/503 + Retry-After)
// paces all three the same way.
package transport

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"p2b/internal/rng"
)

// RetryableStatus reports whether a response status is transient: the
// throttle statuses (429, 503) and request timeout (408) are explicit "try
// again later", and any 5xx is a server-side condition the same bytes may
// outlive. Everything else (auth failures, malformed-request 4xx) is
// permanent — retrying a 401 forever would only hide the misconfiguration.
func RetryableStatus(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusRequestTimeout ||
		status >= 500
}

// ParseRetryAfter decodes a Retry-After header: delay-seconds or an
// HTTP-date (RFC 9110 §10.2.3). Zero means absent or unparseable.
func ParseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(strings.TrimSpace(v)); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// Backoff is a sender's retry-wait policy: delays start at base and double
// per attempt up to max, each scaled by a uniform jitter in [0.5, 1.5) so
// senders that failed together do not retry together. Closing stop ends
// any wait in progress (and every later one) immediately, so a shutdown
// never sits out a ladder. One Backoff serves any number of concurrent
// operations; each takes its own Ladder.
type Backoff struct {
	base, max time.Duration
	stop      <-chan struct{}

	mu  sync.Mutex
	jit *rng.Rand
}

// NewBackoff returns a policy drawing jitter from jit (jitter needs
// decorrelation, not unpredictability, so any seeded stream works). A nil
// stop never wakes early.
func NewBackoff(base, max time.Duration, jit *rng.Rand, stop <-chan struct{}) *Backoff {
	return &Backoff{base: base, max: max, stop: stop, jit: jit}
}

// Ladder starts one operation's retry sequence at the base delay.
func (b *Backoff) Ladder() Ladder { return Ladder{b: b, delay: b.base} }

// Ladder is the position of one operation on its Backoff's delay ladder.
// It is not safe for concurrent use; concurrent operations each take
// their own.
type Ladder struct {
	b      *Backoff
	delay  time.Duration
	hinted bool
}

// Hint adopts a server-provided Retry-After as the next delay when it
// exceeds the ladder's own: the server knows its recovery horizon better
// than a doubling ladder does. The hint is still capped at the policy
// maximum — a confused server cannot park the sender for an hour.
func (l *Ladder) Hint(retryAfter time.Duration) {
	if retryAfter > l.delay {
		l.delay, l.hinted = retryAfter, true
	}
}

// Next returns the next wait and advances the ladder. A hinted wait
// jitters upward only ([1, 1.5) times the hint): retrying before the
// server's horizon would just earn another shed.
func (l *Ladder) Next() time.Duration {
	l.b.mu.Lock()
	f := 0.5 + l.b.jit.Float64()
	l.b.mu.Unlock()
	if l.hinted {
		f, l.hinted = 1+(f-0.5)/2, false
	}
	wait := time.Duration(float64(l.delay) * f)
	if wait > l.b.max {
		wait = l.b.max
	}
	if l.delay *= 2; l.delay > l.b.max {
		l.delay = l.b.max
	}
	return wait
}

// Wait sleeps for Next, or until the policy's stop channel closes, and
// returns the time actually spent waiting.
func (l *Ladder) Wait() time.Duration {
	start := time.Now()
	t := time.NewTimer(l.Next())
	defer t.Stop()
	select {
	case <-t.C:
	case <-l.b.stop:
	}
	return time.Since(start)
}
