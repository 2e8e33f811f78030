// Agent-side batched reporting. A fleet simulator (or a real device SDK)
// produces reports one at a time; shipping each as its own HTTP POST caps
// throughput at the request rate of the connection. BatchingClient
// coalesces reports into the binary batch encoding and posts them to the
// shuffler's /reports route, with size- and age-based flush triggers,
// bounded in-flight buffering with backpressure, and retry with jittered
// exponential backoff.
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"p2b/internal/rng"
	"p2b/internal/transport"
)

// ErrClientClosed is returned by Report after Close.
var ErrClientClosed = errors.New("httpapi: batching client is closed")

// BatchingConfig tunes a BatchingClient. The zero value selects sane
// defaults throughout.
type BatchingConfig struct {
	// MaxBatch flushes the buffer when this many reports have coalesced
	// (default 256 — comfortably amortizes HTTP overhead while keeping a
	// batch under one TCP congestion window at typical frame sizes).
	MaxBatch int
	// MaxAge flushes a non-empty buffer this long after its first report
	// (default 250ms), bounding the staleness a quiet agent can introduce.
	MaxAge time.Duration
	// MaxInFlight bounds how many batches may be queued or on the wire at
	// once (default 4). When the bound is hit, Report blocks: backpressure
	// propagates to the producer instead of growing an unbounded buffer.
	MaxInFlight int
	// MaxRetries is how many times a failed batch POST is retried before
	// the batch is dropped and the failure recorded (default 3). Retries
	// are safe because ingestion is additive and the shuffler's threshold
	// treats duplicates as ordinary crowd members.
	MaxRetries int
	// RetryBase is the first retry delay; subsequent delays double, each
	// multiplied by a uniform jitter in [0.5, 1.5) so a fleet that failed
	// together does not retry together (default 50ms).
	RetryBase time.Duration
	// MaxRetryDelay caps any single retry wait, including server-provided
	// Retry-After hints (default 30s) — a confused server cannot park the
	// client for an hour.
	MaxRetryDelay time.Duration
	// Breaker, when non-nil, short-circuits sends while the node is known
	// down: attempts refused by an open breaker count as transient
	// failures (they wait out the backoff like any other), but cost no
	// connection. Share one breaker with the model-sync path so both learn
	// about an outage from each other's traffic.
	Breaker *CircuitBreaker
	// NDJSON switches the wire encoding from the binary framing to
	// newline-delimited JSON (the debuggable fallback).
	NDJSON bool
	// Seed seeds the retry jitter stream (default 1; any value works —
	// jitter needs decorrelation, not unpredictability).
	Seed uint64
}

func (c *BatchingConfig) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxAge <= 0 {
		c.MaxAge = 250 * time.Millisecond
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.MaxRetryDelay <= 0 {
		c.MaxRetryDelay = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// BatchStats counts a BatchingClient's traffic.
type BatchStats struct {
	Reported       int64 // reports accepted by Report
	Batches        int64 // batches delivered successfully
	Retries        int64 // individual retry attempts
	DroppedBatches int64 // batches abandoned after exhausting retries
	DroppedReports int64 // reports inside those batches
	BackoffWaits   int64 // retry backoff sleeps taken
	BackoffNanos   int64 // total time spent sleeping between retries
}

type pendingBatch struct {
	body  []byte
	count int
}

// BatchingClient coalesces reports into batch POSTs against a Client's
// shuffler URL. All methods are safe for concurrent use.
type BatchingClient struct {
	c   *Client
	cfg BatchingConfig

	mu      sync.Mutex
	done    *sync.Cond // broadcast when pending drops to zero
	buf     []byte     // encoded frames of the open batch (starts with magic)
	count   int        // reports in the open batch
	pending int        // batches cut but not yet sent (or failed)
	closed  bool
	err     error // first permanent delivery failure, sticky
	stats   BatchStats
	timer   *time.Timer

	// Backoff accounting is atomic, not under b.mu: the waits run in the
	// sender goroutines with no lock held, and taking b.mu there would
	// serialize a backoff wait against Report's hot path.
	backoffWaits atomic.Int64
	backoffNanos atomic.Int64

	queue   chan pendingBatch
	stop    chan struct{}  // closed by Close: backoff sleeps end immediately
	enq     sync.WaitGroup // in-flight enqueue attempts, so Close can safely close(queue)
	wg      sync.WaitGroup // sender goroutines
	backoff *transport.Backoff
}

// NewBatchingClient wraps c's shuffler endpoint in a batching pipeline.
// Callers must Close the returned client to flush the tail.
func NewBatchingClient(c *Client, cfg BatchingConfig) *BatchingClient {
	cfg.fill()
	b := &BatchingClient{
		c:     c,
		cfg:   cfg,
		queue: make(chan pendingBatch), // unbuffered: MaxInFlight senders ARE the bound
		stop:  make(chan struct{}),
	}
	b.backoff = transport.NewBackoff(cfg.RetryBase, cfg.MaxRetryDelay, rng.New(cfg.Seed).Split("batch-retry-jitter"), b.stop)
	b.done = sync.NewCond(&b.mu)
	b.timer = time.AfterFunc(time.Hour, b.flushTimer)
	b.timer.Stop()
	for i := 0; i < cfg.MaxInFlight; i++ {
		b.wg.Add(1)
		go b.sender()
	}
	return b
}

// Report adds one envelope to the open batch, cutting and shipping it when
// the size trigger fires. It blocks when MaxInFlight batches are already
// outstanding (backpressure). The returned error is the sticky first
// delivery failure, if any — reports keep flowing after a failure, but the
// producer learns something went wrong without waiting for Close.
func (b *BatchingClient) Report(e transport.Envelope) error {
	if err := checkEnvelope(&e, b.cfg.NDJSON); err != nil {
		return err
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClientClosed
	}
	if b.count == 0 {
		b.buf = transport.AppendMagic(b.buf[:0])
		b.timer.Reset(b.cfg.MaxAge)
	}
	if b.cfg.NDJSON {
		b.buf = appendNDJSON(b.buf, &e)
	} else {
		b.buf = e.AppendFrame(b.buf)
	}
	b.count++
	b.stats.Reported++
	var pb pendingBatch
	cut := false
	if b.count >= b.cfg.MaxBatch {
		pb, cut = b.cutLocked()
	}
	err := b.err
	b.mu.Unlock()
	if cut {
		b.enqueue(pb)
	}
	return err
}

// checkEnvelope rejects envelopes the chosen wire encoding could not ship
// losslessly: rejecting them up front keeps one bad report from poisoning
// a whole batch. A frame body over the transport limit would be refused by
// the server's decoder (a permanent 400 dropping up to MaxBatch-1 good
// reports with it), and JSON cannot represent a non-finite reward at all.
func checkEnvelope(e *transport.Envelope, ndjson bool) error {
	if ndjson {
		if math.IsNaN(e.Tuple.Reward) || math.IsInf(e.Tuple.Reward, 0) {
			return fmt.Errorf("httpapi: reward %v is not representable in JSON", e.Tuple.Reward)
		}
		return nil
	}
	if n := e.FrameBodySize(); n > transport.MaxFrameBytes {
		return fmt.Errorf("httpapi: envelope frame body is %d bytes, exceeding the transport limit %d (oversized metadata?)",
			n, transport.MaxFrameBytes)
	}
	return nil
}

// appendNDJSON appends one envelope as a JSON line. The magic header is
// not part of NDJSON; callers strip it before posting.
func appendNDJSON(dst []byte, e *transport.Envelope) []byte {
	blob, err := json.Marshal(e)
	if err != nil {
		// checkEnvelope screened the one marshal failure an Envelope of
		// plain ints, strings and a float64 admits (non-finite reward).
		panic(fmt.Sprintf("httpapi: encoding envelope: %v", err))
	}
	dst = append(dst, blob...)
	return append(dst, '\n')
}

// cutLocked detaches the open batch for shipping. Callers hold b.mu and
// must pass a true result to enqueue. Registering with b.enq here, under
// the lock, is what makes Close safe: any cut that happened before Close
// observed (and set) closed is already registered, so Close's enq.Wait
// cannot race past it and close the queue under a pending send.
func (b *BatchingClient) cutLocked() (pendingBatch, bool) {
	if b.count == 0 {
		return pendingBatch{}, false
	}
	pb := pendingBatch{body: b.buf, count: b.count}
	b.buf = nil
	b.count = 0
	b.pending++
	b.enq.Add(1)
	return pb, true
}

// enqueue hands a cut batch to the senders. The channel is unbuffered, so
// this blocks while every sender is busy — the backpressure surface.
func (b *BatchingClient) enqueue(pb pendingBatch) {
	b.queue <- pb
	b.enq.Done()
}

// flushTimer is the age trigger: MaxAge after a batch's first report, ship
// whatever has coalesced.
func (b *BatchingClient) flushTimer() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	pb, cut := b.cutLocked()
	b.mu.Unlock()
	if cut {
		b.enqueue(pb)
	}
}

// Flush ships the open batch and waits until every outstanding batch has
// been delivered (or abandoned), then reports the sticky error.
func (b *BatchingClient) Flush() error {
	b.mu.Lock()
	pb, cut := b.cutLocked()
	b.mu.Unlock()
	if cut {
		b.enqueue(pb)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.pending > 0 {
		b.done.Wait()
	}
	return b.err
}

// Close flushes the tail, stops the senders and returns the sticky error.
// Report fails with ErrClientClosed afterwards. Close is idempotent.
//
// Close also collapses retry backoff: senders sleeping between attempts
// wake immediately and run their remaining attempts back to back, so a
// shutdown against a struggling node drains in attempt time, not in
// accumulated backoff time. Every outstanding batch still gets its full
// attempt budget — Close trades latency for nothing, delivery-wise.
func (b *BatchingClient) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return b.Flush()
	}
	b.closed = true
	b.timer.Stop()
	close(b.stop)
	pb, cut := b.cutLocked()
	b.mu.Unlock()
	if cut {
		b.enqueue(pb)
	}
	b.enq.Wait() // no enqueue may straddle the close below
	close(b.queue)
	b.wg.Wait()
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// Stats returns a snapshot of the delivery counters.
func (b *BatchingClient) Stats() BatchStats {
	b.mu.Lock()
	st := b.stats
	b.mu.Unlock()
	st.BackoffWaits = b.backoffWaits.Load()
	st.BackoffNanos = b.backoffNanos.Load()
	return st
}

// sender delivers cut batches until the queue closes.
func (b *BatchingClient) sender() {
	defer b.wg.Done()
	for pb := range b.queue {
		err := b.send(pb)
		b.mu.Lock()
		if err != nil {
			if b.err == nil {
				b.err = err
			}
			b.stats.DroppedBatches++
			b.stats.DroppedReports += int64(pb.count)
		} else {
			b.stats.Batches++
		}
		b.pending--
		if b.pending == 0 {
			b.done.Broadcast()
		}
		b.mu.Unlock()
	}
}

// send posts one batch, retrying transient failures with jittered
// exponential backoff. Network errors, 5xx responses, 429 Too Many
// Requests (the node shed the batch — it never saw it) and 408 are
// retried, honoring a Retry-After hint when the server sends one; other
// 4xx responses are permanent (the batch is wrong, resending cannot fix
// it). Retries are safe because ingestion is additive and a shed or
// errored request was rejected before ingestion. When a breaker is
// configured, attempts while it is open are refused locally — they wait
// out the backoff like any failure but cost no connection.
func (b *BatchingClient) send(pb pendingBatch) error {
	contentType := transport.ContentTypeBinary
	body := pb.body
	if b.cfg.NDJSON {
		contentType = transport.ContentTypeNDJSON
		body = body[len(transport.Magic):] // magic is a binary-framing artifact
	}
	url := b.c.ShufflerURL + "/reports"
	ladder := b.backoff.Ladder()
	var lastErr error
	for attempt := 0; attempt <= b.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			b.mu.Lock()
			b.stats.Retries++
			b.mu.Unlock()
			// Record the time actually slept (Close may cut a wait short),
			// so the counter reflects real wall-clock spent backing off.
			b.backoffWaits.Add(1)
			b.backoffNanos.Add(ladder.Wait().Nanoseconds())
		}
		if !b.cfg.Breaker.Allow() {
			lastErr = fmt.Errorf("httpapi: post %s: %w", url, ErrBreakerOpen)
			continue
		}
		resp, err := b.c.httpClient().Post(url, contentType, bytes.NewReader(body))
		if err != nil {
			b.cfg.Breaker.Record(false)
			lastErr = fmt.Errorf("httpapi: post %s: %w", url, err)
			continue
		}
		status := resp.StatusCode
		retryAfter := transport.ParseRetryAfter(resp.Header.Get("Retry-After"))
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		// Breaker outcome tracks the NODE's health, not this batch's fate: a
		// 429 or a permanent 400 still proves the node is up and answering,
		// so only connection failures and 5xx count against it.
		b.cfg.Breaker.Record(status < 500)
		switch {
		case status == http.StatusAccepted:
			return nil
		case transport.RetryableStatus(status):
			ladder.Hint(retryAfter)
			lastErr = fmt.Errorf("httpapi: post %s: status %d: %s", url, status, msg)
			continue
		default:
			return fmt.Errorf("httpapi: post %s: permanent status %d: %s", url, status, msg)
		}
	}
	return lastErr
}

// ReportBatch posts envelopes as one binary batch POST and returns the
// server's ack. It is the synchronous single-shot form of BatchingClient,
// convenient for tests and replay tools.
func (c *Client) ReportBatch(envs []transport.Envelope) (BatchAck, error) {
	var ack BatchAck
	body := transport.AppendMagic(make([]byte, 0, 64+32*len(envs)))
	for i := range envs {
		if err := checkEnvelope(&envs[i], false); err != nil {
			return ack, fmt.Errorf("httpapi: envelope %d: %w", i, err)
		}
		body = envs[i].AppendFrame(body)
	}
	url := c.ShufflerURL + "/reports"
	resp, err := c.httpClient().Post(url, transport.ContentTypeBinary, bytes.NewReader(body))
	if err != nil {
		return ack, fmt.Errorf("httpapi: post %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return ack, fmt.Errorf("httpapi: post %s: status %d: %s", url, resp.StatusCode, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return ack, fmt.Errorf("httpapi: decode batch ack: %w", err)
	}
	return ack, nil
}
