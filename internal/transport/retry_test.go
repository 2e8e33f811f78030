package transport

import (
	"net/http"
	"testing"
	"time"

	"p2b/internal/rng"
)

func TestRetryableStatus(t *testing.T) {
	for _, tc := range []struct {
		status int
		want   bool
	}{
		{http.StatusTooManyRequests, true},
		{http.StatusRequestTimeout, true},
		{http.StatusInternalServerError, true},
		{http.StatusServiceUnavailable, true},
		{http.StatusBadRequest, false},
		{http.StatusNotFound, false},
		{http.StatusRequestEntityTooLarge, false},
		{http.StatusAccepted, false},
	} {
		if got := RetryableStatus(tc.status); got != tc.want {
			t.Errorf("RetryableStatus(%d) = %v, want %v", tc.status, got, tc.want)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	if got := ParseRetryAfter(""); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
	if got := ParseRetryAfter("7"); got != 7*time.Second {
		t.Errorf("\"7\" = %v, want 7s", got)
	}
	if got := ParseRetryAfter("-3"); got != 0 {
		t.Errorf("negative seconds = %v, want 0", got)
	}
	if got := ParseRetryAfter("soon"); got != 0 {
		t.Errorf("garbage = %v, want 0", got)
	}
	// HTTP-date form: a date in the future yields a positive delay, one in
	// the past yields zero.
	future := time.Now().Add(time.Hour).UTC().Format(http.TimeFormat)
	if got := ParseRetryAfter(future); got < 59*time.Minute || got > time.Hour {
		t.Errorf("future date = %v, want ~1h", got)
	}
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	if got := ParseRetryAfter(past); got != 0 {
		t.Errorf("past date = %v, want 0", got)
	}
}

// The ladder doubles from base to max under [0.5, 1.5) jitter, a hint
// replaces a smaller delay and is never undercut, and a closed stop
// channel collapses the wait.
func TestBackoffLadder(t *testing.T) {
	stop := make(chan struct{})
	b := NewBackoff(10*time.Millisecond, 40*time.Millisecond, rng.New(7), stop)
	l := b.Ladder()
	for i, base := range []time.Duration{10, 20, 40, 40} {
		base *= time.Millisecond
		hi := min(base*3/2, 40*time.Millisecond)
		if w := l.Next(); w < base/2 || w > hi {
			t.Fatalf("wait %d = %v outside [%v, %v]", i, w, base/2, hi)
		}
	}

	hinted := NewBackoff(time.Millisecond, time.Minute, rng.New(7), nil).Ladder()
	hinted.Hint(time.Second)
	if w := hinted.Next(); w < time.Second || w >= 1500*time.Millisecond {
		t.Fatalf("hinted wait = %v, want [1s, 1.5s): a Retry-After is a floor", w)
	}
	hinted.Hint(time.Millisecond) // below the ladder's own delay: ignored
	if w := hinted.Next(); w < time.Second {
		t.Fatalf("wait after a small hint = %v, want the doubled ladder delay", w)
	}

	capped := NewBackoff(time.Millisecond, 20*time.Millisecond, rng.New(7), nil).Ladder()
	capped.Hint(time.Hour)
	if w := capped.Next(); w != 20*time.Millisecond {
		t.Fatalf("capped hint wait = %v, want the 20ms maximum", w)
	}

	close(stop)
	slow := NewBackoff(time.Hour, time.Hour, rng.New(7), stop).Ladder()
	if slept := slow.Wait(); slept > time.Second {
		t.Fatalf("Wait slept %v after stop closed", slept)
	}
}
