// HTTP transport: the report half of the deployment seam real device
// fleets use against a running p2bnode. A fleet simulator (or a real
// device) produces reports one at a time; shipping each as its own POST
// caps throughput at the request rate of the connection. HTTPTransport
// coalesces reports into P2B1 binary frames and posts them to the node's
// /shuffler/reports route, with size- and age-based flush triggers, bounded
// in-flight buffering with backpressure, and retry with jittered
// exponential backoff. It is the only report wire the SDK speaks; the
// node's other ingest routes stay for curl and the gate scripts.
package agent

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"p2b/internal/httpapi"
	"p2b/internal/rng"
	"p2b/internal/transport"
)

// ErrClientClosed is returned by HTTPTransport.Report after Close.
var ErrClientClosed = errors.New("agent: HTTP transport is closed")

// defaultHTTPClient is what a transport or source uses when its options
// name none: a conservative overall timeout, default connection pooling.
func defaultHTTPClient() *http.Client { return &http.Client{Timeout: 10 * time.Second} }

// roundTrip issues one request to a node through cb (nil admits
// everything) and is the one place a request's outcome is classified for
// the breaker. The outcome tracks the NODE's health, not the request's
// fate: a 429, a 304 or a permanent 4xx still proves the node is up and
// answering, so only connection failures and 5xx count against it.
func roundTrip(hc *http.Client, cb *CircuitBreaker, req *http.Request) (*http.Response, error) {
	if !cb.Allow() {
		return nil, fmt.Errorf("agent: %s %s: %w", req.Method, req.URL, ErrBreakerOpen)
	}
	resp, err := hc.Do(req)
	cb.Record(err == nil && resp.StatusCode < 500)
	if err != nil {
		return nil, fmt.Errorf("agent: %s %s: %w", req.Method, req.URL, err)
	}
	return resp, nil
}

// statusError renders an unexpected response, quoting the head of its body.
func statusError(req *http.Request, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("agent: %s %s: status %d: %s", req.Method, req.URL, resp.StatusCode, msg)
}

// HTTPTransportOptions tunes an HTTPTransport. The zero value selects sane
// defaults throughout.
type HTTPTransportOptions struct {
	// MaxBatch flushes the buffer when this many reports have coalesced
	// (default 256 — comfortably amortizes HTTP overhead while keeping a
	// batch under one TCP congestion window at typical frame sizes).
	MaxBatch int
	// MaxAge flushes a non-empty buffer this long after its first report
	// (default 250ms), bounding the staleness a quiet agent can introduce.
	MaxAge time.Duration
	// MaxInFlight bounds how many batches may be queued or on the wire at
	// once (default 4). When the bound is hit, Report blocks: backpressure
	// propagates to the producer instead of growing an unbounded buffer. 1
	// makes delivery order deterministic — what the chaos harness's
	// bit-exactness check runs with.
	MaxInFlight int
	// MaxRetries is how many times a failed batch POST is retried before
	// the batch is dropped and the failure recorded (default 3; negative
	// disables retries). Retries are safe because ingestion is additive and
	// the shuffler's threshold treats duplicates as ordinary crowd members.
	MaxRetries int
	// RetryBase is the first retry delay; subsequent delays double, each
	// multiplied by a uniform jitter in [0.5, 1.5) so a fleet that failed
	// together does not retry together (default 50ms).
	RetryBase time.Duration
	// MaxRetryDelay caps any single retry wait, including server-provided
	// Retry-After hints (default 30s) — a confused server cannot park the
	// client for an hour.
	MaxRetryDelay time.Duration
	// Seed seeds the retry jitter stream (default 1; any value works —
	// jitter needs decorrelation, not unpredictability).
	Seed uint64
	// HTTPClient overrides the underlying client (default: 10s timeout).
	HTTPClient *http.Client
	// Breaker, when non-nil, short-circuits report delivery while the node
	// is known down: attempts refused by an open breaker count as transient
	// failures (they wait out the backoff like any other) but cost no
	// connection. Share it with the HTTPSource so both learn about an
	// outage from each other's traffic.
	Breaker *CircuitBreaker
}

func (o *HTTPTransportOptions) fill() {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.MaxAge <= 0 {
		o.MaxAge = 250 * time.Millisecond
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 50 * time.Millisecond
	}
	if o.MaxRetryDelay <= 0 {
		o.MaxRetryDelay = 30 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.HTTPClient == nil {
		o.HTTPClient = defaultHTTPClient()
	}
}

// BatchStats counts an HTTPTransport's traffic.
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

// HTTPTransport ships agent reports to the p2bnode at one base URL as
// batched binary POSTs — one transport instance serves a whole fleet of
// agents. It also implements RawReporter for the non-private baseline. All
// methods are safe for concurrent use.
type HTTPTransport struct {
	url  string // node base URL
	opts HTTPTransportOptions

	mu      sync.Mutex
	done    *sync.Cond // broadcast when pending drops to zero
	buf     []byte     // encoded frames of the open batch (starts with magic)
	count   int        // reports in the open batch
	pending int        // batches cut but not yet sent (or failed)
	closed  bool
	err     error // first permanent delivery failure, sticky
	stats   BatchStats
	timer   *time.Timer

	// Backoff accounting is atomic, not under t.mu: the waits run in the
	// sender goroutines with no lock held, and taking t.mu there would
	// serialize a backoff wait against Report's hot path.
	backoffWaits atomic.Int64
	backoffNanos atomic.Int64

	queue   chan pendingBatch
	stop    chan struct{}  // closed by Close: backoff sleeps end immediately
	enq     sync.WaitGroup // in-flight enqueue attempts, so Close can safely close(queue)
	wg      sync.WaitGroup // sender goroutines
	backoff *transport.Backoff
}

// NewHTTPTransport returns a transport posting to the node at nodeURL.
// Callers must Close the transport to flush the tail.
func NewHTTPTransport(nodeURL string, opts HTTPTransportOptions) *HTTPTransport {
	opts.fill()
	t := &HTTPTransport{
		url:   nodeURL,
		opts:  opts,
		queue: make(chan pendingBatch), // unbuffered: MaxInFlight senders ARE the bound
		stop:  make(chan struct{}),
	}
	t.backoff = transport.NewBackoff(opts.RetryBase, opts.MaxRetryDelay, rng.New(opts.Seed).Split("batch-retry-jitter"), t.stop)
	t.done = sync.NewCond(&t.mu)
	t.timer = time.AfterFunc(time.Hour, t.flushTimer)
	t.timer.Stop()
	for i := 0; i < opts.MaxInFlight; i++ {
		t.wg.Add(1)
		go t.sender()
	}
	return t
}

// Report adds one envelope to the open batch, cutting and shipping it when
// the size trigger fires. It blocks when MaxInFlight batches are already
// outstanding (backpressure). The returned error is the sticky first
// delivery failure, if any — reports keep flowing after a failure, but the
// producer learns something went wrong without waiting for Close.
func (t *HTTPTransport) Report(e Envelope) error {
	// Reject what the wire could not ship up front, so one bad report never
	// poisons a whole batch: a frame body over the transport limit would be
	// refused by the server's decoder — a permanent 400 dropping up to
	// MaxBatch-1 good reports with it.
	if n := e.FrameBodySize(); n > transport.MaxFrameBytes {
		return fmt.Errorf("agent: envelope frame body is %d bytes, exceeding the transport limit %d (oversized metadata?)",
			n, transport.MaxFrameBytes)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClientClosed
	}
	if t.count == 0 {
		t.buf = transport.AppendMagic(t.buf[:0])
		t.timer.Reset(t.opts.MaxAge)
	}
	t.buf = e.AppendFrame(t.buf)
	t.count++
	t.stats.Reported++
	var pb pendingBatch
	if t.count >= t.opts.MaxBatch {
		pb = t.cutLocked()
	}
	err := t.err
	t.mu.Unlock()
	t.enqueue(pb)
	return err
}

// cutLocked detaches the open batch (empty if nothing is open) for
// shipping. Callers hold t.mu and must pass the result to enqueue after
// releasing it. Registering with t.enq here, under the lock, is what makes
// Close safe: any cut that happened before Close observed (and set) closed
// is already registered, so Close's enq.Wait cannot race past it and close
// the queue under a pending send.
func (t *HTTPTransport) cutLocked() pendingBatch {
	if t.count == 0 {
		return pendingBatch{}
	}
	pb := pendingBatch{body: t.buf, count: t.count}
	t.buf = nil
	t.count = 0
	t.pending++
	t.enq.Add(1)
	return pb
}

// enqueue hands a cut batch to the senders; an empty cut is a no-op. The
// channel is unbuffered, so this blocks while every sender is busy — the
// backpressure surface.
func (t *HTTPTransport) enqueue(pb pendingBatch) {
	if pb.count == 0 {
		return
	}
	t.queue <- pb
	t.enq.Done()
}

// flushTimer is the age trigger: MaxAge after a batch's first report, ship
// whatever has coalesced.
func (t *HTTPTransport) flushTimer() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	pb := t.cutLocked()
	t.mu.Unlock()
	t.enqueue(pb)
}

// Flush settles the client side: the open batch ships and every
// outstanding batch is delivered (or abandoned after retries) before Flush
// returns the sticky error. It does not force the node's shuffler batch;
// see FlushNode.
func (t *HTTPTransport) Flush() error {
	t.mu.Lock()
	pb := t.cutLocked()
	t.mu.Unlock()
	t.enqueue(pb)
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.pending > 0 {
		t.done.Wait()
	}
	return t.err
}

// Close flushes the tail, stops the senders and returns the sticky error.
// Report fails with ErrClientClosed afterwards. Close is idempotent.
//
// Close also collapses retry backoff: senders sleeping between attempts
// wake immediately and run their remaining attempts back to back, so a
// shutdown against a struggling node drains in attempt time, not in
// accumulated backoff time. Every outstanding batch still gets its full
// attempt budget — Close trades latency for nothing, delivery-wise.
func (t *HTTPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return t.Flush()
	}
	t.closed = true
	t.timer.Stop()
	close(t.stop)
	pb := t.cutLocked()
	t.mu.Unlock()
	t.enqueue(pb)
	t.enq.Wait() // no enqueue may straddle the close below
	close(t.queue)
	t.wg.Wait()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Stats returns a snapshot of the delivery counters.
func (t *HTTPTransport) Stats() BatchStats {
	t.mu.Lock()
	st := t.stats
	t.mu.Unlock()
	st.BackoffWaits = t.backoffWaits.Load()
	st.BackoffNanos = t.backoffNanos.Load()
	return st
}

// sender delivers cut batches until the queue closes.
func (t *HTTPTransport) sender() {
	defer t.wg.Done()
	for pb := range t.queue {
		err := t.send(pb)
		t.mu.Lock()
		if err != nil {
			if t.err == nil {
				t.err = err
			}
			t.stats.DroppedBatches++
			t.stats.DroppedReports += int64(pb.count)
		} else {
			t.stats.Batches++
		}
		t.pending--
		if t.pending == 0 {
			t.done.Broadcast()
		}
		t.mu.Unlock()
	}
}

// send posts one batch, retrying transient failures with jittered
// exponential backoff. Network errors, 5xx responses, 429 Too Many
// Requests (the node shed the batch — it never saw it) and 408 are
// retried, honoring a Retry-After hint when the server sends one; other
// 4xx responses are permanent (the batch is wrong, resending cannot fix
// it). Retries are safe because ingestion is additive and a shed or
// errored request was rejected before ingestion. Attempts refused by an
// open breaker wait out the backoff like any failure but cost no
// connection.
func (t *HTTPTransport) send(pb pendingBatch) error {
	ladder := t.backoff.Ladder()
	var lastErr error
	for attempt := 0; attempt <= t.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			t.mu.Lock()
			t.stats.Retries++
			t.mu.Unlock()
			// Record the time actually slept (Close may cut a wait short),
			// so the counter reflects real wall-clock spent backing off.
			t.backoffWaits.Add(1)
			t.backoffNanos.Add(ladder.Wait().Nanoseconds())
		}
		req, err := http.NewRequest(http.MethodPost, t.url+"/shuffler/reports", bytes.NewReader(pb.body))
		if err != nil {
			return fmt.Errorf("agent: building batch request: %w", err)
		}
		req.Header.Set("Content-Type", transport.ContentTypeBinary)
		resp, err := roundTrip(t.opts.HTTPClient, t.opts.Breaker, req)
		if err != nil {
			lastErr = err
			continue
		}
		status := resp.StatusCode
		retryAfter := transport.ParseRetryAfter(resp.Header.Get("Retry-After"))
		// Reading the (short) body to EOF is what lets the connection be
		// reused for the next batch.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		switch {
		case status == http.StatusAccepted:
			return nil
		case transport.RetryableStatus(status):
			ladder.Hint(retryAfter)
			lastErr = fmt.Errorf("agent: POST %s: status %d: %s", req.URL, status, msg)
		default:
			return fmt.Errorf("agent: POST %s: permanent status %d: %s", req.URL, status, msg)
		}
	}
	return lastErr
}

// postJSON posts v (nil = empty body) to one of the node's JSON routes and
// expects wantStatus. These are the SDK's rare, unbatched calls — baseline
// ingestion and the end-of-round flush — so they bypass retry and breaker.
func (t *HTTPTransport) postJSON(path string, v any, wantStatus int) error {
	var body io.Reader
	if v != nil {
		blob, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("agent: marshal: %w", err)
		}
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(http.MethodPost, t.url+path, body)
	if err != nil {
		return fmt.Errorf("agent: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := roundTrip(t.opts.HTTPClient, nil, req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		return statusError(req, resp)
	}
	return nil
}

// ReportRaw submits one unencoded observation to the server's baseline
// ingestion route.
func (t *HTTPTransport) ReportRaw(rt RawTuple) error {
	return t.postJSON("/server/raw", rt, http.StatusAccepted)
}

// FlushNode asks the node's shuffler to push its pending privacy batch
// through thresholding — an end-of-round operation, not part of the normal
// reporting path.
func (t *HTTPTransport) FlushNode() error {
	if err := t.Flush(); err != nil {
		return err
	}
	return t.postJSON("/shuffler/flush", nil, http.StatusNoContent)
}

// Health is a node's decoded /healthz response.
type Health = httpapi.Health

// FetchHealth probes a node's liveness route. It fails on connection
// errors, non-200 statuses and unhealthy payloads — the preflight check a
// fleet runs before simulating devices. A "degraded" status (the node
// serves but its durable log is bypassed) is returned as healthy — callers
// that demand durability must inspect Overload.Degraded.
func FetchHealth(nodeURL string) (*Health, error) {
	req, err := http.NewRequest(http.MethodGet, nodeURL+"/healthz", nil)
	if err != nil {
		return nil, fmt.Errorf("agent: building health request: %w", err)
	}
	resp, err := roundTrip(defaultHTTPClient(), nil, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(req, resp)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("agent: decode %s: %w", req.URL, err)
	}
	if h.Status != "ok" && h.Status != "degraded" {
		return nil, fmt.Errorf("agent: node unhealthy: status %q", h.Status)
	}
	return &h, nil
}

var _ interface {
	Transport
	RawReporter
	ModelSource
} = (*Loopback)(nil)

var _ interface {
	Transport
	RawReporter
} = (*HTTPTransport)(nil)
