package persist

import (
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/transport"
)

// Options configures a Manager.
type Options struct {
	// SyncInterval batches WAL fsyncs: appends are made durable at most
	// this long after acceptance. Zero syncs on every append — the strict
	// setting the crash-recovery CI job runs with — at the cost of one
	// fsync per ingest call.
	SyncInterval time.Duration
	// CheckpointInterval takes automatic checkpoints. Zero means manual
	// checkpoints only (the /admin/checkpoint endpoint and shutdown).
	CheckpointInterval time.Duration
	// RetainWAL keeps fully-checkpointed segments on disk instead of
	// pruning them. The full log then replays from sequence 1, which is
	// what lets p2bwal reconstruct the node's entire accepted input stream
	// for audit or equivalence checks.
	RetainWAL bool
	// Logf receives recovery and checkpoint progress lines. Nil uses
	// log.Printf.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, instruments WAL appends, fsyncs and
	// checkpoints (see NewMetrics).
	Metrics *Metrics
	// Cursor, when non-nil, is the relay forwarder whose (epoch, seq)
	// identity this data directory makes durable. Open restores the
	// cursor — from the checkpoint, then from any replayed RecordCursor —
	// before replaying tuple records, so WAL-tail re-forwards reuse the
	// pre-crash epoch; on a first boot it writes one synced cursor record
	// so the freshly minted epoch survives a crash before any checkpoint.
	Cursor CursorCarrier
}

// CursorCarrier is the forwarder-side half of durable relay identity:
// something that stamps outgoing batches with an (epoch, seq) cursor and
// can have that cursor restored at recovery. *topology.Forwarder
// implements it.
type CursorCarrier interface {
	// Cursor returns the stamping epoch and the last assigned sequence.
	Cursor() (epoch, seq uint64)
	// SetCursor overwrites the cursor; recovery calls it before any
	// batch is (re-)forwarded.
	SetCursor(epoch, seq uint64)
}

// RecoveryInfo summarizes what Open reconstructed from disk.
type RecoveryInfo struct {
	CheckpointSeq   uint64 `json:"checkpoint_seq"`   // WAL position of the loaded checkpoint (0 = none)
	ReplayedRecords int    `json:"replayed_records"` // WAL records applied past the checkpoint
	ReplayedTuples  int    `json:"replayed_tuples"`
	ReplayedFlushes int    `json:"replayed_flushes"`
	ReplayedPeer    int    `json:"replayed_peer"`   // relay-forwarded peer batches re-delivered
	TruncatedBytes  int64  `json:"truncated_bytes"` // torn tail removed from the final segment
	LastSeq         uint64 `json:"last_seq"`
	// CursorRestored reports whether a relay forwarding cursor was
	// recovered (from the checkpoint or a RecordCursor) rather than
	// freshly minted this boot.
	CursorRestored bool `json:"cursor_restored,omitempty"`
}

// Info is the manager's live status, served by /healthz.
type Info struct {
	Dir           string       `json:"dir"`
	WALSeq        uint64       `json:"wal_seq"`
	CheckpointSeq uint64       `json:"checkpoint_seq"`
	Segments      int          `json:"segments"`
	Recovery      RecoveryInfo `json:"recovery"`
}

// Manager ties a shuffler and server to a data directory: every accepted
// ingestion operation is logged before it is applied, checkpoints capture
// consistent cuts, and Open replays whatever a crash left behind.
//
// The manager serializes ingestion: WAL order must equal application order
// for replay to reproduce the run, so SubmitEnvelope/SubmitTuples/Flush
// hold one lock across the log append and the shuffler call. Snapshot
// reads are unaffected and stay concurrent.
type Manager struct {
	dir  string
	opts Options
	shuf *shuffler.Shuffler
	srv  *server.Server
	wal  *WAL

	mu       sync.Mutex // serializes ingestion and checkpointing
	ckptSeq  uint64     // WAL position of the last written checkpoint
	hasCkpt  bool       // a checkpoint has been written or loaded
	recovery RecoveryInfo

	stop chan struct{}
	done chan struct{}
}

// Open recovers a node's durable state from dir and returns a manager
// ready to ingest. Recovery ordering:
//
//  1. Load the checkpoint (if any) and restore the server accumulators and
//     the shuffler's pending buffer + RNG position from it.
//  2. Open the WAL, truncating a torn tail in the final segment.
//  3. Replay every record past the checkpoint through the regular
//     submission path, reproducing batch boundaries, shuffles and
//     threshold decisions exactly.
//
// The shuffler and server must be freshly constructed (nothing ingested);
// Open refuses to recover into components that already hold state.
func Open(dir string, shuf *shuffler.Shuffler, srv *server.Server, opts Options) (*Manager, error) {
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating data dir: %w", err)
	}
	m := &Manager{
		dir:  dir,
		opts: opts,
		shuf: shuf,
		srv:  srv,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}

	ckpt, err := LoadCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	if ckpt != nil {
		if ckpt.Server == nil || ckpt.Shuffler == nil {
			return nil, fmt.Errorf("%w: checkpoint is missing server or shuffler state", ErrCorrupt)
		}
		if err := srv.ImportState(ckpt.Server); err != nil {
			return nil, fmt.Errorf("persist: restoring server state: %w", err)
		}
		if err := shuf.Restore(ckpt.Shuffler); err != nil {
			return nil, fmt.Errorf("persist: restoring shuffler state: %w", err)
		}
		m.ckptSeq = ckpt.WALSeq
		m.hasCkpt = true
		m.recovery.CheckpointSeq = ckpt.WALSeq
		if ckpt.Relay != nil && opts.Cursor != nil {
			// Restore the forwarding identity before the replay below can
			// cut (and re-forward) a single batch: pre-checkpoint batches
			// are not re-cut, so the checkpoint is the only record of how
			// far the sequence advanced under this epoch.
			opts.Cursor.SetCursor(ckpt.Relay.Epoch, ckpt.Relay.Seq)
			m.recovery.CursorRestored = true
		}
	}

	wal, walInfo, err := OpenWAL(dir)
	if err != nil {
		return nil, err
	}
	if opts.Metrics != nil {
		// Installed before any concurrent use: replay below is synchronous
		// and the background loops only start at the end of Open.
		wal.fsyncHist = opts.Metrics.FsyncSeconds
	}
	m.wal = wal
	m.recovery.TruncatedBytes = walInfo.TruncatedBytes
	m.recovery.LastSeq = walInfo.LastSeq

	if walInfo.LastSeq < m.ckptSeq {
		wal.Close()
		return nil, fmt.Errorf("%w: checkpoint covers sequence %d but the log ends at %d", ErrCorrupt, m.ckptSeq, walInfo.LastSeq)
	}

	err = wal.Replay(m.ckptSeq, func(rec Record) error {
		m.recovery.ReplayedRecords++
		switch rec.Type {
		case RecordFlush:
			m.recovery.ReplayedFlushes++
			shuf.Flush()
		case RecordDeliver:
			// Straight to the server, bypassing the shuffler, exactly like
			// the live /peer/ingest path. The server's (origin, epoch, seq)
			// guard — restored from the checkpoint — drops records the
			// checkpoint already covers.
			m.recovery.ReplayedPeer++
			m.recovery.ReplayedTuples += len(rec.Tuples)
			srv.DeliverPeerBatch(rec.Origin, rec.Epoch, rec.PeerSeq, rec.Tuples)
		case RecordTuples:
			m.recovery.ReplayedTuples += len(rec.Tuples)
			shuf.SubmitTuples(rec.Tuples)
		case RecordCursor:
			// Written before any post-boot tuple record, so by the time a
			// replayed batch cuts and re-forwards, the forwarder already
			// stamps the pre-crash epoch.
			if opts.Cursor != nil {
				opts.Cursor.SetCursor(rec.Epoch, rec.PeerSeq)
				m.recovery.CursorRestored = true
			}
		default:
			return fmt.Errorf("%w: replaying unknown record type %d at seq %d", ErrCorrupt, rec.Type, rec.Seq)
		}
		return nil
	})
	if err != nil {
		wal.Close()
		return nil, err
	}
	if opts.Cursor != nil && !m.recovery.CursorRestored {
		// First boot of this data directory with a forwarder: make the
		// freshly minted epoch durable before any traffic is accepted. The
		// record is synced unconditionally — losing it would re-mint an
		// epoch on the next boot and reopen the double-counting gap this
		// record exists to close.
		epoch, seq := opts.Cursor.Cursor()
		if _, err := wal.AppendCursor(epoch, seq, true); err != nil {
			wal.Close()
			return nil, err
		}
	}
	if m.recovery.CheckpointSeq > 0 || m.recovery.ReplayedRecords > 0 || m.recovery.TruncatedBytes > 0 {
		opts.Logf("persist: recovered from %s: checkpoint seq %d, replayed %d records (%d tuples, %d flushes), truncated %d torn bytes, log at seq %d",
			dir, m.recovery.CheckpointSeq, m.recovery.ReplayedRecords, m.recovery.ReplayedTuples,
			m.recovery.ReplayedFlushes, m.recovery.TruncatedBytes, m.recovery.LastSeq)
	}

	go m.background()
	return m, nil
}

// syncNow reports whether appends fsync inline (strict mode) or leave
// durability to the background interval.
func (m *Manager) syncNow() bool { return m.opts.SyncInterval == 0 }

// SubmitEnvelope durably ingests one report: the bare tuple is logged
// (metadata never touches disk), then the envelope enters the shuffler.
// A log refusal (error) means the tuple entered nothing: the WAL rolls
// failed appends back, so the record cannot resurface at recovery.
func (m *Manager) SubmitEnvelope(e transport.Envelope) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := m.appendStart()
	if _, err := m.wal.AppendTuples([]transport.Tuple{e.Tuple}, m.syncNow()); err != nil {
		return err
	}
	m.observeAppend(start)
	m.shuf.Submit(e)
	return nil
}

// appendStart reads the clock only when append timing is on: the
// zero-telemetry path pays one nil check, not a clock read, per ingest.
func (m *Manager) appendStart() time.Time {
	if m.opts.Metrics == nil {
		return time.Time{}
	}
	return walClock()
}

// observeAppend records one successful WAL append's latency.
func (m *Manager) observeAppend(start time.Time) {
	if m.opts.Metrics != nil {
		m.opts.Metrics.AppendSeconds.Observe(walClock().Sub(start).Seconds())
	}
}

// SubmitTuples durably ingests one anonymized chunk.
func (m *Manager) SubmitTuples(tuples []transport.Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	start := m.appendStart()
	if _, err := m.wal.AppendTuples(tuples, m.syncNow()); err != nil {
		return err
	}
	m.observeAppend(start)
	m.shuf.SubmitTuples(tuples)
	return nil
}

// DeliverPeer durably applies one relay-forwarded peer batch: the batch is
// checked against the server's duplicate guard, logged under its (origin,
// epoch, seq) position, then delivered straight to the analyzer server —
// it does not pass the local shuffler, because the forwarding relay
// already shuffled and thresholded it. Duplicates return (false, nil)
// without touching the log, so retried batches never bloat the WAL.
func (m *Manager) DeliverPeer(origin string, epoch, seq uint64, tuples []transport.Tuple) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.srv.PeerBatchSeen(origin, epoch, seq) {
		m.srv.NoteRelayDuplicate()
		return false, nil
	}
	start := m.appendStart()
	if _, err := m.wal.AppendDeliver(origin, epoch, seq, tuples, m.syncNow()); err != nil {
		return false, err
	}
	m.observeAppend(start)
	return m.srv.DeliverPeerBatch(origin, epoch, seq, tuples), nil
}

// Flush logs a flush marker and pushes the shuffler's pending batch
// through the privacy pipeline. The marker matters: replay must flush at
// the same stream position, or recovered batch boundaries would diverge.
func (m *Manager) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := m.appendStart()
	if _, err := m.wal.AppendFlush(m.syncNow()); err != nil {
		return err
	}
	m.observeAppend(start)
	m.shuf.Flush()
	return nil
}

// Checkpoint captures a consistent cut: ingestion is quiesced, the WAL is
// synced, the server accumulators and shuffler state are exported, and the
// checkpoint file atomically replaced. Fully covered WAL segments are then
// pruned unless Options.RetainWAL keeps them.
func (m *Manager) Checkpoint() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.wal.Sync(); err != nil {
		return err
	}
	seq := m.wal.LastSeq()
	// Nothing to capture: every input that changes checkpointed state is
	// logged before it is applied, so an unmoved log means nothing changed
	// since the last checkpoint. Skipping avoids rewriting a multi-megabyte
	// checkpoint every interval tick on an idle node. (The snapshots-served
	// counter may drift; that is bookkeeping, not model state.)
	if m.hasCkpt && seq == m.ckptSeq {
		return nil
	}
	start := m.appendStart()
	shufState, err := m.shuf.Drain()
	if err != nil {
		return err
	}
	// Drain cleared the live shuffler; put the state straight back. Restore
	// copies the pending slice and RNG bytes, so the drained state stays
	// valid for the checkpoint write below.
	if err := m.shuf.Restore(shufState); err != nil {
		return fmt.Errorf("persist: re-restoring shuffler after drain: %w", err)
	}
	ckpt := &Checkpoint{
		WALSeq:   seq,
		Server:   m.srv.ExportState(),
		Shuffler: shufState,
	}
	if m.opts.Cursor != nil {
		// Ingestion is quiesced under m.mu and forwarding is synchronous
		// inside it, so the cursor here is exactly consistent with the
		// shuffler state above: every batch counted in Seq was cut from
		// records at or before WALSeq.
		epoch, fseq := m.opts.Cursor.Cursor()
		ckpt.Relay = &RelayCursor{Epoch: epoch, Seq: fseq}
	}
	if err := WriteCheckpoint(m.dir, ckpt); err != nil {
		return err
	}
	m.ckptSeq = seq
	m.hasCkpt = true
	if err := m.wal.Rotate(); err != nil {
		return err
	}
	if !m.opts.RetainWAL {
		if err := m.wal.Prune(seq); err != nil {
			return err
		}
	}
	if m.opts.Metrics != nil {
		m.opts.Metrics.CheckpointSeconds.Observe(walClock().Sub(start).Seconds())
		m.opts.Metrics.Checkpoints.Inc()
	}
	return nil
}

// SyncWAL makes every appended record durable now. It is the relay
// forwarder's pre-send durability hook (Forwarder.SetSync): called from
// inside a batch delivery, which runs under the manager's ingestion lock,
// so it must touch only the WAL's own mutex — and does.
func (m *Manager) SyncWAL() error { return m.wal.Sync() }

// Recovery returns what Open reconstructed.
func (m *Manager) Recovery() RecoveryInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovery
}

// Info returns the manager's live status.
func (m *Manager) Info() Info {
	m.mu.Lock()
	rec := m.recovery
	ckptSeq := m.ckptSeq
	m.mu.Unlock()
	return Info{
		Dir:           m.dir,
		WALSeq:        m.wal.LastSeq(),
		CheckpointSeq: ckptSeq,
		Segments:      m.wal.Segments(),
		Recovery:      rec,
	}
}

// background runs the sync and checkpoint tickers until Close.
func (m *Manager) background() {
	defer close(m.done)
	var syncC, ckptC <-chan time.Time
	if m.opts.SyncInterval > 0 {
		t := time.NewTicker(m.opts.SyncInterval)
		defer t.Stop()
		syncC = t.C
	}
	if m.opts.CheckpointInterval > 0 {
		t := time.NewTicker(m.opts.CheckpointInterval)
		defer t.Stop()
		ckptC = t.C
	}
	for {
		select {
		case <-m.stop:
			return
		case <-syncC:
			if err := m.wal.Sync(); err != nil {
				m.opts.Logf("persist: background sync: %v", err)
			}
		case <-ckptC:
			if err := m.Checkpoint(); err != nil {
				m.opts.Logf("persist: background checkpoint: %v", err)
			}
		}
	}
}

// Close stops the background loops, syncs, and closes the log. It does not
// checkpoint — callers that want a final checkpoint (graceful shutdown)
// call Checkpoint first.
func (m *Manager) Close() error {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.done
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wal.Close()
}
