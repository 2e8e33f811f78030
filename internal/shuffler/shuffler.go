// Package shuffler implements the trusted shuffler of the ESA architecture
// as P2B uses it (paper §3.3). For every batch it performs, in order:
//
//  1. Anonymization — all transport metadata is discarded; only the bare
//     (code, action, reward) tuples survive.
//  2. Shuffling — the batch order is randomly permuted, unlinking arrival
//     order from any sender.
//  3. Thresholding — tuples whose encoded context appears fewer than
//     Threshold times in the batch are removed, establishing the
//     crowd-blending parameter l = Threshold for everything forwarded.
//
// The production system runs this inside a trusted enclave; here the same
// observable behaviour is provided in software, and the privacy analysis
// depends only on that behaviour.
package shuffler

import (
	"context"
	"fmt"
	"sync"

	"p2b/internal/metrics"
	"p2b/internal/privacy"
	"p2b/internal/rng"
	"p2b/internal/transport"
)

// Sink receives finished batches from the shuffler. The server implements
// this.
type Sink interface {
	// Deliver hands over one anonymized, shuffled, thresholded batch. The
	// slice is only valid for the duration of the call: the shuffler pools
	// and reuses batch buffers, so a sink that wants to keep tuples must
	// copy them.
	Deliver(batch []transport.Tuple)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(batch []transport.Tuple)

// Deliver calls f.
func (f SinkFunc) Deliver(batch []transport.Tuple) { f(batch) }

// Config holds the shuffler parameters.
type Config struct {
	// BatchSize is how many envelopes are buffered before a batch is
	// processed. Larger batches make the threshold easier to clear but
	// delay model updates.
	BatchSize int
	// Threshold is the crowd-blending parameter l: a tuple is forwarded
	// only if its code occurs at least Threshold times in the batch. The
	// paper's real-data experiments use 10.
	Threshold int
}

// Stats counts the shuffler's traffic.
type Stats struct {
	Received  int64 // envelopes submitted
	Forwarded int64 // tuples delivered to the sink
	Dropped   int64 // tuples removed by thresholding
	Batches   int64 // batches processed
}

// Metrics are the shuffler's push-style telemetry instruments, distinct
// from Stats (which every surface still reads at snapshot time): batch
// sizes and cut reasons are per-event distributions that only exist at the
// moment a batch is processed. All instruments are nil-safe, so an
// unconfigured shuffler pays two nil checks per batch — per batch, not per
// tuple.
type Metrics struct {
	// BatchSizes observes the tuple count of every processed batch.
	BatchSizes *metrics.Histogram
	// SizeBatches counts batches cut by reaching Config.BatchSize.
	SizeBatches *metrics.Counter
	// FlushBatches counts batches pushed out by an explicit Flush.
	FlushBatches *metrics.Counter
}

// SetMetrics installs telemetry instruments. Call before the shuffler
// starts accepting traffic.
func (s *Shuffler) SetMetrics(m Metrics) {
	s.mu.Lock()
	s.metrics = m
	s.mu.Unlock()
}

// Shuffler buffers envelopes and releases privacy-scrubbed batches to a
// sink. It is safe for concurrent use.
type Shuffler struct {
	cfg  Config
	sink Sink

	mu      sync.Mutex
	buf     []transport.Tuple // metadata already stripped at submission
	r       *rng.Rand
	stats   Stats
	metrics Metrics
	// free recycles batch buffers (each of capacity BatchSize) between the
	// accumulate -> process -> deliver cycle, so steady-state submission
	// allocates nothing.
	free [][]transport.Tuple
	// counts is the thresholding step's code-frequency table, reused by
	// every cut under mu.
	counts codeCounts
}

// codeCounts counts code occurrences within one batch: an open-addressing
// hash table reused across cuts. A slot belongs to the current batch only
// while its stamp equals gen, so starting a batch costs one increment
// rather than clearing the table, and a steady stream of cuts allocates
// nothing. The count pass probes the table once per tuple and leaves the
// tuple's slot index in at, so the keep pass reads each count by index
// instead of probing again.
type codeCounts struct {
	slots []countSlot // len is a power of two, at least twice the batch
	at    []int32     // at[i]: slot of the batch's i-th tuple; len(slots)/2
	shift uint        // 64 - log2(len(slots))
	gen   uint32
}

type countSlot struct {
	code int
	gen  uint32 // batch the slot was last written in; 0 = never
	n    int32
}

// reset starts a new batch of up to n tuples.
func (c *codeCounts) reset(n int) {
	if 2*n > len(c.slots) {
		c.shift = 61
		for 1<<(64-c.shift) < 2*n {
			c.shift--
		}
		c.slots = make([]countSlot, 1<<(64-c.shift))
		c.at = make([]int32, len(c.slots)/2)
		c.gen = 0
	}
	c.gen++
	if c.gen == 0 {
		// The stamp wrapped: stamps from 2^32 batches ago would read as
		// live, so wipe them once and start over.
		clear(c.slots)
		c.gen = 1
	}
}

// slot returns the index of code's slot in the current batch: the slot
// holding it, or the empty slot where it belongs. The table is never more
// than half full, so the probe ends.
func (c *codeCounts) slot(code int) int {
	mask := len(c.slots) - 1
	i := c.home(code)
	for {
		s := &c.slots[i]
		if s.gen != c.gen || s.code == code {
			return i
		}
		i = (i + 1) & mask
	}
}

// home is where code's probe starts. Fibonacci hashing: the top bits of
// the product mix every bit of the code, so clustered and strided codes
// spread across the table.
func (c *codeCounts) home(code int) int {
	return int((uint64(code) * 0x9e3779b97f4a7c15) >> c.shift)
}

// add counts one occurrence of code, the batch's i-th tuple, in the
// current batch.
func (c *codeCounts) add(i, code int) {
	at := c.slot(code)
	s := &c.slots[at]
	if s.gen != c.gen {
		*s = countSlot{code: code, gen: c.gen}
	}
	s.n++
	c.at[i] = int32(at)
}

// count returns how often the batch's i-th tuple's code occurred in the
// current batch, once every tuple has been added.
func (c *codeCounts) count(i int) int { return int(c.slots[c.at[i]].n) }

// New returns a shuffler delivering to sink, shuffling with randomness from
// r. It panics on a non-positive batch size or negative threshold.
func New(cfg Config, sink Sink, r *rng.Rand) *Shuffler {
	if cfg.BatchSize <= 0 {
		panic(fmt.Sprintf("shuffler: batch size must be positive, got %d", cfg.BatchSize))
	}
	if cfg.Threshold < 0 {
		panic(fmt.Sprintf("shuffler: threshold must be non-negative, got %d", cfg.Threshold))
	}
	if sink == nil {
		panic("shuffler: nil sink")
	}
	s := &Shuffler{cfg: cfg, sink: sink, r: r}
	s.counts.reset(cfg.BatchSize)
	return s
}

// takeBufLocked returns an empty batch buffer, recycled when one is free.
func (s *Shuffler) takeBufLocked() []transport.Tuple {
	if n := len(s.free); n > 0 {
		buf := s.free[n-1]
		s.free = s.free[:n-1]
		return buf
	}
	return make([]transport.Tuple, 0, s.cfg.BatchSize)
}

// Submit accepts one envelope. Metadata is stripped immediately — identity
// never rests in the buffer — and a batch is processed once BatchSize
// tuples have accumulated.
//
//p2b:hotpath
func (s *Shuffler) Submit(e transport.Envelope) {
	s.mu.Lock()
	s.stats.Received++
	if s.buf == nil {
		s.buf = s.takeBufLocked()
	}
	s.buf = append(s.buf, e.Tuple) // anonymization: Meta is dropped here
	var batch []transport.Tuple
	if len(s.buf) >= s.cfg.BatchSize {
		batch = s.buf
		s.buf = nil
	}
	s.mu.Unlock()
	if batch != nil {
		s.process(batch, false)
	}
}

// SubmitTuples folds a slice of already-anonymized tuples into the buffer
// under a single lock acquisition, processing every full batch that forms
// along the way. It is the batched ingestion path: the HTTP batch route
// decodes frames into a reused chunk and hands the whole chunk over here,
// so the per-envelope cost is one append, not one lock round-trip.
//
// Batch boundaries depend only on the arrival sequence, so a tuple stream
// submitted through SubmitTuples produces bit-identical batches (and, with
// the same shuffle RNG, bit-identical server state) to the same stream
// submitted one Submit call at a time.
//
// The tuples slice is only read during the call; callers may reuse it.
//
//p2b:hotpath
func (s *Shuffler) SubmitTuples(tuples []transport.Tuple) {
	if len(tuples) == 0 {
		return
	}
	// A chunk rarely spans more than a few batches; the array keeps the
	// common case off the heap.
	var cuts [4][]transport.Tuple
	full := cuts[:0]
	s.mu.Lock()
	s.stats.Received += int64(len(tuples))
	for len(tuples) > 0 {
		if s.buf == nil {
			s.buf = s.takeBufLocked()
		}
		n := s.cfg.BatchSize - len(s.buf)
		if n > len(tuples) {
			n = len(tuples)
		}
		s.buf = append(s.buf, tuples[:n]...)
		tuples = tuples[n:]
		if len(s.buf) >= s.cfg.BatchSize {
			full = append(full, s.buf)
			s.buf = nil
		}
	}
	s.mu.Unlock()
	for _, batch := range full {
		s.process(batch, false)
	}
}

// Flush processes whatever is buffered, regardless of batch size. Call it
// at the end of a collection round so stragglers are not lost; note that
// small flushed batches are exactly the ones most likely to be consumed by
// thresholding, which is the correct privacy behaviour.
func (s *Shuffler) Flush() {
	s.mu.Lock()
	batch := s.buf
	s.buf = nil
	s.mu.Unlock()
	if len(batch) > 0 {
		s.process(batch, true)
	}
}

// process shuffles, thresholds and forwards one batch. explicit records
// why the batch was cut: an explicit Flush versus the size trigger.
func (s *Shuffler) process(batch []transport.Tuple, explicit bool) {
	s.mu.Lock()
	s.metrics.BatchSizes.Observe(float64(len(batch)))
	if explicit {
		s.metrics.FlushBatches.Inc()
	} else {
		s.metrics.SizeBatches.Inc()
	}
	// Shuffling: sever any link between arrival order and position. This
	// is Fisher-Yates with exactly the draws rng.Shuffle makes, inlined to
	// spare a closure call per swap.
	for i := len(batch) - 1; i > 0; i-- {
		j := s.r.Uint64N(uint64(i + 1))
		batch[i], batch[j] = batch[j], batch[i]
	}

	// Thresholding: count code frequencies, keep only crowd members.
	s.counts.reset(len(batch))
	for i, t := range batch {
		s.counts.add(i, t.Code)
	}
	kept := batch[:0]
	for i, t := range batch {
		if privacy.InCrowd(s.counts.count(i), s.cfg.Threshold) {
			kept = append(kept, t)
		}
	}
	s.stats.Dropped += int64(len(batch) - len(kept))
	s.stats.Forwarded += int64(len(kept))
	s.stats.Batches++
	s.mu.Unlock()

	if len(kept) > 0 {
		s.sink.Deliver(kept)
	}
	// The sink contract forbids retaining the slice, so the buffer can be
	// recycled for a future batch once Deliver returns.
	s.mu.Lock()
	s.free = append(s.free, batch[:0])
	s.mu.Unlock()
}

// Stats returns a snapshot of the traffic counters.
func (s *Shuffler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Config returns the shuffler's parameters.
func (s *Shuffler) Config() Config { return s.cfg }

// State is the shuffler's complete durable state: the tuples buffered but
// not yet released through the privacy pipeline, the traffic counters, and
// the position of the permutation stream. Everything in it is already
// anonymized — transport metadata is stripped at submission, before a tuple
// can ever reach the buffer — so persisting a State discloses nothing the
// server would not eventually see anyway.
type State struct {
	Pending []transport.Tuple `json:"pending"`
	Stats   Stats             `json:"stats"`
	RNG     []byte            `json:"rng"`
}

// Drain atomically removes and returns the shuffler's durable state,
// leaving the shuffler factory-fresh (empty buffer, zero counters). The
// pending tuples keep their arrival order, so a later Restore (or a WAL
// replay that re-submits them first) reproduces the exact batch boundaries
// an uninterrupted run would have formed — which is what keeps the
// k-anonymity threshold's batch semantics intact across a restart.
// Drain followed immediately by Restore of the same state is a no-op, which
// is how a live checkpoint captures the state without perturbing it.
func (s *Shuffler) Drain() (*State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rngState, err := s.r.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("shuffler: capturing rng state: %w", err)
	}
	st := &State{
		Pending: append([]transport.Tuple(nil), s.buf...),
		Stats:   s.stats,
		RNG:     rngState,
	}
	if s.buf != nil {
		s.free = append(s.free, s.buf[:0])
		s.buf = nil
	}
	s.stats = Stats{}
	return st, nil
}

// Restore refills the shuffler from a drained state. It refuses to clobber
// a shuffler that has already accepted traffic: the buffer must be empty
// and the counters zero, i.e. recovery happens before the listener opens.
// Restored tuples are not re-counted in Stats.Received — they were counted
// when first submitted and the restored counters already include them.
func (s *Shuffler) Restore(st *State) error {
	if len(st.Pending) >= s.cfg.BatchSize {
		return fmt.Errorf("shuffler: restore state holds %d pending tuples, batch size is %d (a full batch can never be pending)",
			len(st.Pending), s.cfg.BatchSize)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) > 0 || s.stats != (Stats{}) {
		return fmt.Errorf("shuffler: refusing to restore over a non-empty shuffler (%d buffered, %+v)", len(s.buf), s.stats)
	}
	if len(st.RNG) > 0 {
		if err := s.r.UnmarshalBinary(st.RNG); err != nil {
			return fmt.Errorf("shuffler: restoring rng state: %w", err)
		}
	}
	if len(st.Pending) > 0 {
		s.buf = append(s.takeBufLocked(), st.Pending...)
	}
	s.stats = st.Stats
	return nil
}

// Pending returns how many tuples are currently buffered.
func (s *Shuffler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// Run consumes envelopes from in until the channel closes or ctx is
// cancelled, then flushes. It is the streaming deployment mode: one
// goroutine owns the shuffler while any number of agent goroutines feed the
// bus.
func (s *Shuffler) Run(ctx context.Context, in <-chan transport.Envelope) {
	for {
		select {
		case <-ctx.Done():
			s.Flush()
			return
		case e, ok := <-in:
			if !ok {
				s.Flush()
				return
			}
			s.Submit(e)
		}
	}
}
