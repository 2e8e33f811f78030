// Package server implements P2B's analyzer: the central component that
// folds privacy-scrubbed batches into a global model and hands snapshots to
// agents that want a warm start.
//
// Two global models are maintained:
//
//   - a tabular model over (code, action) cells, fed by the shuffler — this
//     is the production P2B path;
//   - a LinUCB model over raw contexts, fed directly by agents — this is
//     the non-private baseline the paper compares against.
//
// A single experiment only exercises one of the two, but keeping both in
// one server keeps the evaluation harness symmetrical. With a Decoder, a
// third model — LinUCB over decoded codes — is derived from the tabular
// cells at snapshot time; it has no accumulator of its own.
//
// # Sharded ingestion
//
// Ingestion does not funnel through one global lock: the server keeps a
// configurable number of shards, each holding its own additive accumulators
// (tabular (count, sum) cells, and per-arm (sum x x^T, sum r x, n) for the
// raw-context model). A Deliver or IngestRaw call locks exactly one shard —
// chosen round-robin — so concurrent calls from worker goroutines proceed
// in parallel. Snapshots merge the shards on read; because all accumulators
// are additive, the merge is exact. Merged snapshots are cached against a
// mutation version counter, so the common many-snapshots-between-batches
// pattern costs one merge plus cheap copies.
package server

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"p2b/internal/bandit"
	"p2b/internal/mat"
	"p2b/internal/transport"
)

// Decoder maps an encoded context back to a representative vector in the
// context space (a cluster centroid or grid point). When a decoder is
// configured, the server additionally serves a LinUCB model over decoded
// contexts — the centroid-learner variant of the private pipeline.
type Decoder interface {
	Decode(code int) []float64
}

// Config describes the model shapes the server maintains.
type Config struct {
	K     int     // code space size of the tabular model
	Arms  int     // number of actions
	D     int     // raw context dimension of the LinUCB baseline model
	Alpha float64 // exploration parameter baked into distributed snapshots
	Seed  uint64  // retained for compatibility; ingestion itself is seedless
	// Decoder, when non-nil, enables the centroid global model: a LinUCB
	// over Decode(code) contexts, derived from the tabular cells at
	// snapshot time (see CentroidModel). Ingestion never calls it.
	Decoder Decoder
	// Shards is the number of ingestion shards (default: GOMAXPROCS,
	// capped at 16). More shards admit more concurrent Deliver/IngestRaw
	// calls at the cost of proportionally more accumulator memory.
	Shards int
}

// Stats counts what the server has ingested and how the snapshot read
// path is behaving: a healthy steady-state fleet shows SnapshotHits
// growing much faster than SnapshotBuilds (reads share one build per
// model version).
type Stats struct {
	TuplesIngested int64 // encoded tuples from the shuffler
	RawIngested    int64 // raw tuples from the non-private baseline
	Snapshots      int64 // snapshots served
	SnapshotHits   int64 // snapshot fetches answered from the shared cache
	SnapshotBuilds int64 // snapshot rebuilds (model version advanced)
}

// linAccum is an additive sufficient-statistics accumulator for one LinUCB
// model: per arm, the outer-product sum (without the identity ridge), the
// reward-weighted context sum and the observation count. Accumulators from
// different shards merge by plain addition; the ridge identity and the
// matrix inverse are applied once at snapshot time.
type linAccum struct {
	a []*mat.Dense
	b []mat.Vec
	n []int64
}

func newLinAccum(arms, d int) *linAccum {
	acc := &linAccum{
		a: make([]*mat.Dense, arms),
		b: make([]mat.Vec, arms),
		n: make([]int64, arms),
	}
	for i := range acc.a {
		acc.a[i] = mat.NewDense(d)
		acc.b[i] = mat.NewVec(d)
	}
	return acc
}

func (acc *linAccum) add(x mat.Vec, action int, reward float64) {
	acc.a[action].AddOuter(x, 1)
	acc.b[action].AddScaled(reward, x)
	acc.n[action]++
}

// tabCell packs one (code, action) cell's pull count and reward sum into
// 16 adjacent bytes, so ingesting a tuple touches a single cache line and
// costs a single bounds check.
type tabCell struct {
	count float64
	sum   float64
}

// shard is one stripe of the global model. All fields but version are
// guarded by mu.
type shard struct {
	mu      sync.Mutex
	cells   []tabCell // (code, action) cells, indexed code*Arms+action
	lin     *linAccum // raw-context baseline model
	tuples  int64     // encoded tuples folded into this shard
	raw     int64     // raw tuples folded into this shard
	version atomic.Uint64
	_       [8]uint64 // padding to keep shard locks off shared cache lines
}

// Server aggregates interaction reports into global models. All methods
// are safe for concurrent use.
type Server struct {
	cfg   Config
	epoch uint64 // boot nonce qualifying ModelVersion across restarts

	shards []shard
	// hint is the shard an uncontended caller keeps reusing. Affinity
	// matters: consecutive batches from one goroutine then land in cells
	// that are already cache-hot, and a lone caller stays deterministic.
	// Contention moves callers to other shards via TryLock.
	hint      atomic.Uint32
	snapshots atomic.Int64
	// Atomic mirrors of the ingestion counters, maintained alongside the
	// mu-guarded per-shard fields: telemetry scrapes (and anything else
	// that wants a cheap read) get lock-free totals without sweeping the
	// shard locks like full Stats does. One atomic add per Deliver batch,
	// not per tuple.
	delivered  atomic.Int64 // tuples folded by Deliver
	contention atomic.Int64 // acquireShard calls that left their hint shard

	tabCache  snapshotCache[*bandit.TabularState]
	linCache  snapshotCache[*bandit.LinUCBState]
	centCache snapshotCache[*bandit.LinUCBState]

	// peers holds the multi-analyzer state: relay duplicate guards and
	// stored sibling-analyzer contributions (see peer.go).
	peers peerState

	// changed carries at most one pending "local state moved" signal to
	// whoever reads LocalChanged.
	changed chan struct{}
}

// snapshotCache memoizes the merged snapshot of one model kind against the
// server's mutation version. The cached master is immutable once published:
// a read at an unchanged version is one atomic load returning the shared
// value (no copy, no lock), and concurrent reads crossing a version bump
// collapse into a single build (singleflight) whose result they all share.
type snapshotCache[T any] struct {
	cur    atomic.Pointer[snapshotEntry[T]]
	mu     sync.Mutex // serializes rebuilds
	hits   atomic.Int64
	builds atomic.Int64
}

type snapshotEntry[T any] struct {
	version uint64
	state   T
}

// get returns the shared snapshot for version, building it at most once
// per version bump. Every caller at one version receives the same value;
// it must be treated as immutable (bandit state Clone is the explicit
// mutable-copy API).
func (c *snapshotCache[T]) get(version uint64, build func() T) T {
	if e := c.cur.Load(); e != nil && e.version == version {
		c.hits.Add(1)
		return e.state
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.cur.Load(); e != nil && e.version == version {
		c.hits.Add(1)
		return e.state
	}
	st := build()
	c.builds.Add(1)
	c.cur.Store(&snapshotEntry[T]{version: version, state: st})
	return st
}

// epochClock seeds the boot nonce in New. It is the package's only
// wall-clock seam: the epoch qualifies model versions across restarts
// but never reaches model state, and tests can pin it for reproducible
// version strings.
var epochClock = time.Now

// New returns a server with empty global models.
func New(cfg Config) *Server {
	if cfg.K <= 0 || cfg.Arms <= 0 || cfg.D <= 0 {
		panic(fmt.Sprintf("server: invalid config K=%d Arms=%d D=%d", cfg.K, cfg.Arms, cfg.D))
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
		if cfg.Shards > 16 {
			cfg.Shards = 16
		}
	}
	s := &Server{
		cfg:     cfg,
		epoch:   uint64(epochClock().UnixNano()),
		shards:  make([]shard, cfg.Shards),
		changed: make(chan struct{}, 1),
	}
	s.peers.contribs = make(map[string]*peerContribution)
	s.peers.relays = make(map[string]PeerSeq)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.cells = make([]tabCell, cfg.K*cfg.Arms)
		sh.lin = newLinAccum(cfg.Arms, cfg.D)
	}
	return s
}

// acquireShard returns a locked shard. It first tries the hint shard and,
// when that is contended, the remaining shards in order, settling the hint
// on whichever lock it wins; if every shard is busy it blocks on the hint.
// A single caller therefore always lands on the same warm shard, while
// concurrent callers spread across shards automatically.
func (s *Server) acquireShard() *shard {
	n := uint32(len(s.shards))
	hint := s.hint.Load() % n
	for i := uint32(0); i < n; i++ {
		idx := (hint + i) % n
		sh := &s.shards[idx]
		if sh.mu.TryLock() {
			if i != 0 {
				// The hint shard was contended: count the displacement. The
				// counter growing in step with Deliver calls means the shard
				// count, not the models, is the ingestion bottleneck.
				s.contention.Add(1)
				s.hint.Store(idx)
			}
			return sh
		}
	}
	s.contention.Add(1)
	sh := &s.shards[hint]
	sh.mu.Lock()
	return sh
}

// version returns a counter that changes on every mutation — local shard
// ingestion or an applied peer merge — keying the snapshot caches and the
// model ETag.
func (s *Server) version() uint64 {
	var v uint64
	for i := range s.shards {
		v += s.shards[i].version.Load()
	}
	return v + s.peers.version.Load()
}

// ModelVersion returns the monotonic version of the global models: it
// increases on every ingestion (Deliver or IngestRaw) and never decreases
// within one server process. The HTTP model route uses it as the ETag
// value, so a fleet polling an unchanged model is answered with 304s
// instead of payloads.
func (s *Server) ModelVersion() uint64 { return s.version() }

// ModelEpoch returns the server's boot nonce. The version counter is
// in-memory and restarts from near zero after a crash recovery, so an ETag
// built from the version alone could collide across restarts and validate
// a stale client model with a false 304; qualifying the tag with the epoch
// makes every restart invalidate fleet caches instead (one cheap re-fetch
// per client, always correct).
func (s *Server) ModelEpoch() uint64 { return s.epoch }

// Deliver folds one shuffled batch into the tabular global model (from
// which the centroid model is derived). It implements shuffler.Sink: the
// batch is only read during the call, so the shuffler is free to reuse its
// buffer afterwards. The whole batch lands in a single shard; concurrent
// Deliver calls proceed on distinct shards in parallel.
func (s *Server) Deliver(batch []transport.Tuple) {
	sh := s.acquireShard()
	k, arms := uint(s.cfg.K), uint(s.cfg.Arms)
	narms := s.cfg.Arms
	cells := sh.cells
	ingested := int64(0)
	// One bounds check, one cache line and a branchless clamp per tuple.
	// Malformed tuples (buggy or malicious clients) are dropped rather than
	// corrupting the model.
	for bi := range batch {
		t := &batch[bi]
		if uint(t.Code) >= k || uint(t.Action) >= arms {
			continue
		}
		cell := &cells[t.Code*narms+t.Action]
		cell.count++
		cell.sum += clampReward(t.Reward)
		ingested++
	}
	sh.tuples += ingested
	sh.version.Add(1)
	sh.mu.Unlock()
	s.signalChanged()
	s.delivered.Add(ingested)
}

// IngestRaw folds one unencoded observation into the LinUCB baseline model
// (the "warm and non-private" arm of the evaluation). No node route calls
// it: the baseline runs in process, through agent.Loopback.
func (s *Server) IngestRaw(t transport.RawTuple) error {
	if len(t.Context) != s.cfg.D {
		return fmt.Errorf("server: raw context dimension %d, want %d", len(t.Context), s.cfg.D)
	}
	if t.Action < 0 || t.Action >= s.cfg.Arms {
		return fmt.Errorf("server: raw action %d out of range [0, %d)", t.Action, s.cfg.Arms)
	}
	for i, v := range t.Context {
		// A single non-finite component would poison the additive design
		// matrix forever and surface only later, as a panic when a
		// snapshot tries to invert it — reject it at the door instead.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("server: raw context component %d is not finite", i)
		}
	}
	sh := s.acquireShard()
	sh.lin.add(t.Context, t.Action, clampReward(t.Reward))
	sh.raw++
	sh.version.Add(1)
	sh.mu.Unlock()
	s.signalChanged()
	return nil
}

// LocalChanged returns a channel that receives after LOCAL state changes
// (Deliver or IngestRaw — everything LocalVersion counts at run time). It
// holds at most one pending signal, so any number of mutations between two
// receives coalesce into one, and the signal is sent after the version
// bump: a reader that exports once it has received always sees the change
// that woke it. Applied peer merges and ImportState never signal — an
// inbound contribution must not wake the loop that pushes outbound ones.
func (s *Server) LocalChanged() <-chan struct{} { return s.changed }

// signalChanged leaves one pending signal on the LocalChanged channel
// unless one is already there. It never blocks and never allocates; with
// no reader it is one failed send per batch.
func (s *Server) signalChanged() {
	select {
	case s.changed <- struct{}{}:
	default:
	}
}

// TabularSnapshot returns a private deep copy of the global tabular model:
// the explicit-copy API for callers that want to mutate. Distribution paths
// (warm starts, the HTTP model route) use TabularModel and share one build.
func (s *Server) TabularSnapshot() *bandit.TabularState {
	st, _ := s.TabularModel()
	return st.Clone()
}

// TabularModel returns the shared immutable tabular snapshot together with
// the model version it is keyed under. Every caller at one version receives
// the same value and must treat it as read-only (Clone for a mutable copy;
// warm-starting a learner already copies). An ingestion racing the call may
// already be included in the snapshot while the version predates it; the
// version then changes again once the race settles, so a poller never gets
// stuck on a stale tag.
func (s *Server) TabularModel() (*bandit.TabularState, uint64) {
	s.snapshots.Add(1)
	v := s.version()
	return s.tabCache.get(v, s.buildTabular), v
}

func (s *Server) buildTabular() *bandit.TabularState {
	st := &bandit.TabularState{
		Alpha: s.cfg.Alpha,
		K:     s.cfg.K,
		Arms:  s.cfg.Arms,
		Count: make([]float64, s.cfg.K*s.cfg.Arms),
		Sum:   make([]float64, s.cfg.K*s.cfg.Arms),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for j, c := range sh.cells {
			st.Count[j] += c.count
			st.Sum[j] += c.sum
		}
		sh.mu.Unlock()
	}
	// Peer contributions fold after the local shards, in sorted origin
	// order, so a given contribution set always merges the same way.
	for _, pc := range s.peerContributions() {
		for j := range st.Count {
			st.Count[j] += pc.state.CellCount[j]
			st.Sum[j] += pc.state.CellSum[j]
		}
	}
	return st
}

// LinUCBSnapshot returns a private deep copy of the global LinUCB model
// (see TabularSnapshot for the copy semantics).
func (s *Server) LinUCBSnapshot() *bandit.LinUCBState {
	st, _ := s.LinUCBModel()
	return st.Clone()
}

// LinUCBModel returns the shared immutable LinUCB baseline snapshot
// together with the model version it is keyed under (see TabularModel for
// the sharing and race semantics).
func (s *Server) LinUCBModel() (*bandit.LinUCBState, uint64) {
	s.snapshots.Add(1)
	v := s.version()
	return s.linCache.get(v, s.buildLin), v
}

// CentroidSnapshot returns a private deep copy of the centroid global model,
// or nil when the server was built without a Decoder.
func (s *Server) CentroidSnapshot() *bandit.LinUCBState {
	st, _ := s.CentroidModel()
	if st == nil {
		return nil
	}
	return st.Clone()
}

// CentroidModel returns the shared immutable centroid snapshot together
// with the model version it is keyed under (see TabularModel for the
// sharing and race semantics). The snapshot is nil when the server was
// built without a Decoder.
//
// The centroid model has no accumulator of its own: it is derived from the
// tabular snapshot cached at the same version, peer cells included. With
// c = Decode(code) and a cell's pull count n and reward sum s,
// A_a = I + Σ_code n[code,a]·c·cᵀ and b_a = Σ_code s[code,a]·c.
func (s *Server) CentroidModel() (*bandit.LinUCBState, uint64) {
	if s.cfg.Decoder == nil {
		return nil, s.version()
	}
	s.snapshots.Add(1)
	v := s.version()
	return s.centCache.get(v, func() *bandit.LinUCBState {
		return s.buildCentroid(s.tabCache.get(v, s.buildTabular))
	}), v
}

// buildCentroid derives the centroid snapshot from a tabular snapshot,
// decoding each code that has at least one pull exactly once.
func (s *Server) buildCentroid(tab *bandit.TabularState) *bandit.LinUCBState {
	arms := s.cfg.Arms
	acc := newLinAccum(arms, s.cfg.D)
	for code := 0; code < s.cfg.K; code++ {
		var c mat.Vec
		for a := 0; a < arms; a++ {
			n := tab.Count[code*arms+a]
			if n == 0 {
				continue
			}
			if c == nil {
				c = s.cfg.Decoder.Decode(code)
			}
			acc.a[a].AddOuter(c, n)
			acc.b[a].AddScaled(tab.Sum[code*arms+a], c)
			acc.n[a] += int64(n)
		}
	}
	return s.linSnapshot(acc)
}

// buildLin merges the raw-context accumulator across shards, then folds
// the baseline accumulator of every stored peer contribution in sorted
// origin order.
func (s *Server) buildLin() *bandit.LinUCBState {
	acc := newLinAccum(s.cfg.Arms, s.cfg.D)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for a := range acc.a {
			acc.a[a].Add(sh.lin.a[a])
			acc.b[a].AddScaled(1, sh.lin.b[a])
			acc.n[a] += sh.lin.n[a]
		}
		sh.mu.Unlock()
	}
	for _, pc := range s.peerContributions() {
		peer := &pc.state.Lin
		for a := range acc.a {
			for i, v := range peer.A[a] {
				acc.a[a].Data[i] += v
			}
			for i, v := range peer.B[a] {
				acc.b[a][i] += v
			}
			acc.n[a] += peer.N[a]
		}
	}
	return s.linSnapshot(acc)
}

// linSnapshot converts merged sufficient statistics into snapshot form,
// taking ownership of acc: A_a = I + sum x x^T, inverted once per arm
// (direct inversion here is both cheaper and more accurate than replaying
// thousands of rank-1 updates).
func (s *Server) linSnapshot(acc *linAccum) *bandit.LinUCBState {
	st := &bandit.LinUCBState{
		Alpha: s.cfg.Alpha,
		D:     s.cfg.D,
		Arms:  s.cfg.Arms,
		AInv:  make([][]float64, s.cfg.Arms),
		B:     make([][]float64, s.cfg.Arms),
		N:     acc.n,
	}
	for a, b := range acc.b {
		st.B[a] = b
	}
	invertArms(st, acc.a, s.cfg.D, 0)
	return st
}

// invertArms applies the ridge identity to every merged design matrix and
// inverts it into st.AInv, spreading arms across workers when the total
// work is large enough to pay for goroutines. Arms are independent, so any
// schedule produces bit-identical results. workers <= 0 selects
// GOMAXPROCS.
//
// The ridge is applied after the merge, not before: the outer-product sums
// then accumulate in pure shard order, so a merged-on-write export (which
// sums shards the same way) is bit-identical to what this builder sees.
// Seeding with the identity would entangle the ridge with the merge's
// rounding.
func invertArms(st *bandit.LinUCBState, aSum []*mat.Dense, d, workers int) {
	arms := len(aSum)
	errs := make([]error, arms)
	invert := func(a int) {
		for i := 0; i < d; i++ {
			aSum[a].Data[i*d+i]++
		}
		inv, err := aSum[a].Inverse()
		if err != nil {
			errs[a] = err
			return
		}
		st.AInv[a] = inv.Data
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > arms {
		workers = arms
	}
	// Each inversion is O(d^3); below ~64k total flops the goroutine
	// handoff costs more than it saves.
	if workers < 2 || arms*d*d*d < 1<<16 {
		for a := 0; a < arms; a++ {
			invert(a)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					a := int(next.Add(1)) - 1
					if a >= arms {
						return
					}
					invert(a)
				}
			}()
		}
		wg.Wait()
	}
	for a, err := range errs {
		if err != nil {
			// I + PSD is positive definite; failure means the accumulators
			// were poisoned with non-finite contexts. Panic from the calling
			// goroutine so the failure stays catchable.
			panic(fmt.Sprintf("server: global design matrix of arm %d not invertible: %v", a, err))
		}
	}
}

// IngestCounters returns lock-free ingestion totals: tuples delivered
// through the privacy pipeline and how many shard acquisitions were
// displaced by contention. These are the atomic mirrors telemetry scrapes
// read, so a /metrics pull never serializes against Deliver the way a full
// Stats sweep would.
func (s *Server) IngestCounters() (delivered, contention int64) {
	return s.delivered.Load(), s.contention.Load()
}

// SnapshotCacheStats returns just the snapshot-cache counters. Unlike
// Stats it touches no ingestion shard — the counters are atomics — so
// high-frequency probes (every device's /healthz preflight) never
// serialize against Deliver/IngestRaw on the hot path.
func (s *Server) SnapshotCacheStats() (hits, builds int64) {
	hits = s.tabCache.hits.Load() + s.linCache.hits.Load() + s.centCache.hits.Load()
	builds = s.tabCache.builds.Load() + s.linCache.builds.Load() + s.centCache.builds.Load()
	return hits, builds
}

// Stats returns a snapshot of the ingestion counters.
func (s *Server) Stats() Stats {
	st := Stats{Snapshots: s.snapshots.Load()}
	st.SnapshotHits, st.SnapshotBuilds = s.SnapshotCacheStats()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.TuplesIngested += sh.tuples
		st.RawIngested += sh.raw
		sh.mu.Unlock()
	}
	return st
}

// Config returns the server's model shapes (with the shard default
// filled in).
func (s *Server) Config() Config { return s.cfg }

// clampReward bounds client-reported rewards. The nominal bandit reward is
// in [0, 1], but the synthetic benchmark's Gaussian noise legitimately dips
// below zero, so the server accepts [-1, 1] and only rejects absurd values
// a malicious client could use to poison the global model.
func clampReward(v float64) float64 {
	// Plain comparisons beat the min/max builtins here: rewards are almost
	// always in range, so both branches predict perfectly, while the
	// builtins' NaN and signed-zero semantics cost extra instructions per
	// tuple. NaN fails both comparisons and is mapped to 0 so it cannot
	// spread through the additive cells.
	if v != v {
		return 0
	}
	if v < -1 {
		return -1
	}
	if v > 1 {
		return 1
	}
	return v
}
