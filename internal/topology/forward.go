// The relay's downstream half: a shuffler.Sink that forwards finished
// privacy batches to an analyzer over the existing P2B1 wire.
package topology

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/transport"
)

// Peer protocol headers. Every relay batch names its origin stream
// (relay name), the origin's boot epoch and a per-epoch sequence number,
// so the receiving analyzer can drop duplicates from retries or a relay's
// WAL-tail re-forward without ever double-counting a tuple.
const (
	OriginHeader = "X-P2b-Peer-Origin"
	EpochHeader  = "X-P2b-Peer-Epoch"
	SeqHeader    = "X-P2b-Peer-Seq"
)

// ForwardStats counts a Forwarder's downstream traffic.
type ForwardStats struct {
	Batches    int64  `json:"batches"`    // batches delivered (including duplicate-acked)
	Tuples     int64  `json:"tuples"`     // tuples inside delivered batches
	Duplicates int64  `json:"duplicates"` // batches the analyzer already held: acked applied=false, or covered by a duplicate ack's seq and not sent
	Retries    int64  `json:"retries"`    // send attempts beyond the first
	Dropped    int64  `json:"dropped"`    // batches abandoned after the retry budget
	LastError  string `json:"last_error,omitempty"`
}

// ForwarderOptions configures a Forwarder.
type ForwarderOptions struct {
	// Origin names this relay's batch stream; the analyzer keys its
	// duplicate detection on it. Required.
	Origin string
	// Epoch qualifies sequence numbers across relay restarts. Zero selects
	// a fresh boot nonce.
	Epoch uint64
	// Token, when non-empty, is sent as a bearer token; the analyzer
	// refuses unauthenticated peer traffic when it was started with one.
	Token string
	// MaxRetries bounds send attempts per batch beyond the first
	// (default 10). The shuffler's delivering goroutine blocks during
	// retries — backpressure into admission is the desired behavior when
	// the downstream is struggling.
	MaxRetries int
	// RetryBase is the first backoff delay, doubling per attempt under
	// jitter up to 10s (default 100ms). A Retry-After on the analyzer's
	// 429/503 replaces a smaller delay.
	RetryBase time.Duration
	// Logf receives forward failures. Nil discards them.
	Logf func(format string, args ...any)
}

// Forwarder implements shuffler.Sink for a relay: every finished privacy
// batch is encoded with the P2B1 codec and POSTed to the downstream
// analyzer's /peer/ingest route, tagged (origin, epoch, seq).
//
// Deliveries are serialized under an internal mutex even though the
// shuffler may call Deliver from concurrent request goroutines: sequence
// numbers must be assigned in send order for the analyzer's duplicate
// guard to be meaningful. Sends are synchronous — when the relay acks a
// flush, the batches it cut have already been acked downstream.
type Forwarder struct {
	downstream string
	opts       ForwarderOptions
	client     *http.Client
	backoff    *transport.Backoff

	mu    sync.Mutex
	epoch uint64
	seq   uint64
	sync  func() error // pre-send durability hook, see SetSync
	enc   []byte
	stats ForwardStats
	// covered is the analyzer's guard position as a duplicate ack last
	// stated it; skipped counts the batches it covered, which Deliver
	// counts as duplicate-acked without sending.
	covered server.PeerSeq
	skipped int64
}

// NewForwarder returns a forwarder delivering to the analyzer at
// downstream (base URL, no path).
func NewForwarder(downstream string, opts ForwarderOptions) (*Forwarder, error) {
	if downstream == "" {
		return nil, fmt.Errorf("topology: forwarder needs a downstream analyzer URL")
	}
	if opts.Origin == "" {
		return nil, fmt.Errorf("topology: forwarder needs an origin name")
	}
	if opts.Epoch == 0 {
		opts.Epoch = BootEpoch()
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 10
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = 100 * time.Millisecond
	}
	client := &http.Client{Timeout: 30 * time.Second}
	// Jitter keyed on the origin: relays shed by one analyzer at the same
	// moment come back spread out.
	backoff := transport.NewBackoff(opts.RetryBase, 10*time.Second, rng.New(1).Split("forward-retry").Split(opts.Origin), nil)
	return &Forwarder{downstream: downstream, opts: opts, client: client, backoff: backoff, epoch: opts.Epoch}, nil
}

// Cursor returns the forwarding position: the stamping epoch and the last
// assigned sequence number. It is what a durable relay checkpoints.
func (f *Forwarder) Cursor() (epoch, seq uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch, f.seq
}

// SetCursor overwrites the forwarding position. Recovery calls it —
// before any batch is (re-)forwarded — so a restarted relay resumes its
// persisted (epoch, seq) stream instead of minting a fresh epoch the
// downstream duplicate guard cannot match retransmits against.
func (f *Forwarder) SetCursor(epoch, seq uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.epoch = epoch
	f.seq = seq
}

// SetSync installs a durability hook run before each batch's first send
// attempt — in a durable relay, the WAL sync that makes the records
// backing the batch durable. Without it, a batched-fsync relay could
// forward a batch whose WAL records die with a crash: replay would then
// under-derive the sequence and a LATER batch would reuse this batch's
// (epoch, seq) with different content, which the analyzer would wrongly
// drop as a duplicate. Install before traffic; a nil hook is a no-op.
func (f *Forwarder) SetSync(sync func() error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sync = sync
}

// Covered returns how many batches were counted as duplicates without a
// send, and the downstream position that covered them (zero until a
// duplicate ack states one past the batch it answers).
func (f *Forwarder) Covered() (batches int64, pos server.PeerSeq) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.skipped, f.covered
}

// Downstream returns the analyzer base URL this forwarder delivers to.
func (f *Forwarder) Downstream() string { return f.downstream }

// Stats returns a snapshot of the forward counters.
func (f *Forwarder) Stats() ForwardStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Deliver implements shuffler.Sink: the batch is sent downstream before
// the call returns. The slice is not retained. A batch that exhausts its
// retry budget is dropped and counted — the alternative, buffering
// unbounded batches inside the relay, would turn a downstream outage into
// a relay OOM; operators alert on the dropped counter instead.
//
// A batch the analyzer already said it holds — same epoch, seq at or
// below the mark a duplicate ack carried — is counted as duplicate-acked
// and not sent: by the analyzer's own Covers rule, sending it would only
// earn that ack. This is what makes a restarted relay's WAL-tail replay
// cost one round trip instead of one per batch.
func (f *Forwarder) Deliver(batch []transport.Tuple) {
	if len(batch) == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sync != nil {
		if err := f.sync(); err != nil {
			// The records backing this batch may not be durable; sending it
			// anyway risks a later batch reusing its (epoch, seq) after a
			// crash-replay under-derives the sequence. Refuse the batch the
			// same way an exhausted retry budget would.
			f.stats.Dropped++
			f.stats.LastError = err.Error()
			if f.opts.Logf != nil {
				f.opts.Logf("topology: dropping batch: durability sync failed: %v", err)
			}
			return
		}
	}
	f.seq++
	if f.covered.Covers(f.epoch, f.seq) {
		f.stats.Batches++
		f.stats.Tuples += int64(len(batch))
		f.stats.Duplicates++
		f.skipped++
		return
	}
	f.enc = transport.AppendTuples(f.enc[:0], batch)
	ack, err := f.sendLocked(f.seq, f.enc, len(batch))
	if err != nil {
		f.stats.Dropped++
		f.stats.LastError = err.Error()
		if f.opts.Logf != nil {
			f.opts.Logf("topology: dropping batch seq %d after retries: %v", f.seq, err)
		}
		return
	}
	f.stats.Batches++
	f.stats.Tuples += int64(len(batch))
	if !ack.Applied {
		f.stats.Duplicates++
		// Only a mark past this batch says anything new. A retry after a
		// lost response is acked at exactly the seq sent, so it never
		// opens a skip.
		if ack.Seq > f.seq {
			f.covered = server.PeerSeq{Epoch: f.epoch, Seq: ack.Seq}
		}
	}
}

// sendLocked posts one encoded batch, retrying transient failures on the
// shared backoff ladder (honoring the admission gate's Retry-After). It
// returns the analyzer's ack; applied=false is a duplicate, which is
// success: the data is already in.
func (f *Forwarder) sendLocked(seq uint64, body []byte, n int) (PeerAck, error) {
	url := f.downstream + "/peer/ingest"
	ladder := f.backoff.Ladder()
	var lastErr error
	for attempt := 0; attempt <= f.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			f.stats.Retries++
			ladder.Wait()
		}
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return PeerAck{}, fmt.Errorf("topology: building peer request: %w", err)
		}
		req.Header.Set("Content-Type", transport.ContentTypeBinary)
		req.Header.Set(OriginHeader, f.opts.Origin)
		req.Header.Set(EpochHeader, strconv.FormatUint(f.epoch, 10))
		req.Header.Set(SeqHeader, strconv.FormatUint(seq, 10))
		if f.opts.Token != "" {
			req.Header.Set("Authorization", "Bearer "+f.opts.Token)
		}
		resp, err := f.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		ack, err := decodePeerAck(resp)
		if err != nil {
			lastErr = err
			if !transport.RetryableStatus(resp.StatusCode) {
				return PeerAck{}, err
			}
			ladder.Hint(transport.ParseRetryAfter(resp.Header.Get("Retry-After")))
			continue
		}
		return ack, nil
	}
	return PeerAck{}, fmt.Errorf("topology: forwarding batch of %d to %s: %w", n, url, lastErr)
}

// PeerAck is the JSON response of /peer/ingest and /peer/merge: whether
// the payload changed analyzer state (false = duplicate or stale, which
// the sender treats as success).
//
// A duplicate /peer/ingest ack also states Seq, the analyzer's relay-guard
// high-water mark for the origin, when the guard holds the batch's own
// epoch. Every batch of that epoch at or below it would be dropped the
// same way, so the forwarder skips them. Applied acks, merge acks and
// analyzers predating the field omit it, and then every batch is sent.
type PeerAck struct {
	Applied bool   `json:"applied"`
	Seq     uint64 `json:"seq,omitempty"`
}

func decodePeerAck(resp *http.Response) (PeerAck, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return PeerAck{}, fmt.Errorf("topology: peer answered %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var ack PeerAck
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&ack); err != nil {
		return PeerAck{}, fmt.Errorf("topology: decoding peer ack: %w", err)
	}
	return ack, nil
}
