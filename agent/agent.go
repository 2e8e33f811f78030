// Package agent is the device-side SDK of P2B: the embeddable on-device
// learner any Go program can drop in to join a privacy-preserving bandit
// deployment (paper §3, Figure 1).
//
// An Agent owns everything that runs on the device: the context encoder,
// the local bandit learner, the warm-start state fetched from the global
// model, and the randomized-participation reporting step. The host
// application drives one Select/Observe pair per interaction and calls
// Finish when a session ends:
//
//	ag, err := agent.New(agent.Config{
//		Policy:    agent.PolicyTabular,
//		P:         0.5, // participation probability: epsilon = ln 2
//		Encoder:   enc,
//		Source:    src, // warm-start from the global model
//		Transport: tr,  // randomized reporting through the shuffler
//	})
//	for _, interaction := range session {
//		action := ag.Select(interaction.Context)
//		reward := interaction.Play(action)
//		ag.Observe(action, reward)
//	}
//	disclosed, err := ag.Finish() // at most one tuple per report window
//
// The two deployment seams are small interfaces: Transport carries
// anonymized tuples toward the shuffler and ModelSource serves global model
// snapshots. Loopback implements both against an in-process shuffler and
// server (the population simulator in internal/core runs on it, so the
// simulator exercises exactly this code); HTTPTransport and HTTPSource
// implement them against a remote p2bnode, with batched reporting and
// versioned model sync (ETag/304 polling with jittered background refresh).
//
// Privacy: an Agent never transmits raw interactions on the private
// policies. Each report window gives one independent Bernoulli(P) chance to
// disclose a single encoded (code, action, reward) tuple; everything else
// stays on the device. PolicyLinUCB with a RawReporter transport is the
// paper's non-private baseline and offers no privacy; only the in-process
// Loopback carries it.
package agent

import (
	"errors"
	"fmt"

	"p2b/internal/bandit"
	"p2b/internal/encoding"
	"p2b/internal/privacy"
	"p2b/internal/rng"
	"p2b/internal/transport"
)

// Wire and model types re-exported so SDK users never need the internal
// packages.
type (
	// Tuple is the encoded interaction report the private pipeline
	// transmits: (code, action, reward).
	Tuple = transport.Tuple
	// RawTuple is the unencoded report of the non-private baseline.
	RawTuple = transport.RawTuple
	// Metadata identifies the sender of an envelope; the shuffler strips
	// every field of it.
	Metadata = transport.Metadata
	// Envelope is a tuple in flight together with its transport metadata.
	Envelope = transport.Envelope
	// TabularModel is the global tabular model snapshot (per-(code, action)
	// statistics).
	TabularModel = bandit.TabularState
	// LinearModel is a global LinUCB model snapshot (the non-private
	// baseline and the centroid variant).
	LinearModel = bandit.LinUCBState
	// Encoder maps context vectors to discrete codes.
	Encoder = encoding.Encoder
	// Rand is the deterministic random stream agents draw from.
	Rand = rng.Rand
)

// Policy selects the hypothesis class of the local learner.
type Policy int

const (
	// PolicyTabular learns per-(code, action) statistics over encoded
	// contexts — the paper's production device policy. Requires an Encoder.
	PolicyTabular Policy = iota
	// PolicyCentroid runs LinUCB over decoded cluster centroids — the
	// large-code-space variant. Requires an Encoder whose codes decode.
	PolicyCentroid
	// PolicyLinUCB runs LinUCB over raw contexts: the cold-start and
	// non-private baselines. No encoder involved.
	PolicyLinUCB
)

// String names the policy for logs and errors.
func (p Policy) String() string {
	switch p {
	case PolicyTabular:
		return "tabular"
	case PolicyCentroid:
		return "centroid"
	case PolicyLinUCB:
		return "linucb"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ModelKind names one of the global models a ModelSource can serve.
type ModelKind int

const (
	// ModelTabular is the per-(code, action) global model (private path).
	ModelTabular ModelKind = iota
	// ModelLinUCB is the raw-context LinUCB baseline model.
	ModelLinUCB
	// ModelCentroid is the LinUCB model over decoded centroids. Only the
	// in-process Loopback serves it; a node's model route does not.
	ModelCentroid
)

// String names the kind as it appears on the HTTP model route.
func (k ModelKind) String() string {
	switch k {
	case ModelTabular:
		return "tabular"
	case ModelLinUCB:
		return "linucb"
	case ModelCentroid:
		return "centroid"
	default:
		return fmt.Sprintf("modelkind(%d)", int(k))
	}
}

// Model is one versioned global model snapshot. Exactly one of Tabular and
// Linear is non-nil, matching the requested kind.
type Model struct {
	// Version is the server's monotonic model version at snapshot time. Two
	// fetches with equal versions carry identical models.
	Version uint64
	Tabular *TabularModel
	Linear  *LinearModel
}

// Transport submits anonymized tuples toward the shuffler. Implementations
// must be safe for concurrent use by multiple agents.
type Transport interface {
	// Report submits one encoded tuple wrapped in its transport envelope.
	Report(e Envelope) error
	// Flush settles any client-side buffering (batches in flight). It does
	// not force the remote shuffler's privacy batch.
	Flush() error
}

// RawReporter is the optional transport capability of the non-private
// baseline: shipping unencoded observations straight to the server. A
// PolicyLinUCB agent with a participation probability needs its Transport
// to implement it. Only Loopback does: no node route accepts raw
// contexts, because everything a node learns has passed a shuffler, so
// the baseline runs in process.
type RawReporter interface {
	ReportRaw(t RawTuple) error
}

// ModelSource serves versioned global model snapshots for warm-starting
// agents. Implementations must be safe for concurrent use.
type ModelSource interface {
	// Model returns the current global model of the given kind. The
	// snapshot is read-only and shared: every caller at one model version
	// may receive the same immutable value (Loopback hands out the
	// server's shared master, HTTPSource its cached decode), and
	// warm-starting deep-copies it into the local learner's own buffers —
	// so a fleet of agents shares one snapshot build and still mutates
	// freely. Callers must never write through the returned pointers; use
	// the state types' Clone for a private mutable copy.
	Model(kind ModelKind) (Model, error)
}

// Config parameterizes an Agent. The zero value of every optional field
// selects a sane default; Encoder is required for the encoded policies.
type Config struct {
	// Policy selects the local learner (default PolicyTabular).
	Policy Policy
	// P is the randomized-participation probability in [0, 1): per report
	// window, the chance of disclosing one tuple. 0 never reports.
	P float64
	// ReportWindow divides a session into windows of this many interactions,
	// each an independent Bernoulli(P) disclosure opportunity. 0 means one
	// opportunity per Finish — the paper's single-disclosure regime.
	ReportWindow int
	// Alpha is the UCB exploration parameter used when cold-starting
	// (default 1); a warm start inherits the global model's alpha.
	Alpha float64
	// Arms is the action count. Optional with a Source (the model fixes
	// it); required without one.
	Arms int
	// Dim is the raw context dimension, used by PolicyLinUCB and
	// PolicyCentroid. Optional with a Source; required without one.
	Dim int
	// Encoder maps contexts to codes. Required for PolicyTabular and
	// PolicyCentroid (which additionally needs it to decode); unused by
	// PolicyLinUCB.
	Encoder Encoder
	// Source provides the warm-start model. Nil starts cold.
	Source ModelSource
	// Transport carries this agent's randomized reports. Nil never reports
	// (full privacy, no sharing).
	Transport Transport
	// ReportMeta stamps the transport metadata of the disclosure made in
	// the given window. Nil sends zero metadata.
	ReportMeta func(window int) Metadata
	// Rand is the agent's deterministic random stream (tie-breaking and
	// participation draws). Nil seeds a fresh stream from 1.
	Rand *Rand
	// ColdStartOnError degrades a failed warm start instead of failing New:
	// when the model source errors (node down, network partition), the agent
	// falls back to a cold local learner and reports Degraded() true until a
	// successful Resync. Only source failures qualify — a model that WAS
	// fetched but mismatches the configuration still fails loudly. Requires
	// Arms (and Dim for the linear policies) so the cold learner's shapes
	// are pinned without a model.
	ColdStartOnError bool
	// DeferReports, when positive, bounds a buffer of disclosures whose
	// transport submission failed: instead of surfacing the error, Finish
	// parks the report and re-attempts delivery at the start of the next
	// Finish (and after a successful Resync). When the buffer is full the
	// oldest report is dropped and counted in DroppedReports. 0 disables
	// deferral: a transport error fails Finish.
	DeferReports int
}

// Agent is one on-device P2B learner. An Agent is single-goroutine: the
// Select/Observe/Finish lifecycle owns per-interaction scratch state. Run
// one Agent per device or per simulated user; the Transport and ModelSource
// behind them may be shared freely.
type Agent struct {
	cfg       Config
	r         *Rand
	arms      int
	version   uint64 // warm-start model version, 0 when cold
	warm      bool
	selectCtx func(x []float64) int
	update    func(code, action int, reward float64)

	// pending Select state
	pendingCode int
	pendingX    []float64 // copy of the raw context (PolicyLinUCB only)
	awaiting    bool
	recording   bool // reports possible: history is worth keeping
	steps       int64

	history    []Tuple    // encoded policies
	rawHistory []RawTuple // PolicyLinUCB
	windowBase int        // windows consumed by earlier Finish calls
	disclosed  int64

	// graceful-degradation state
	degraded        bool             // cold-started because the source failed
	deferred        []deferredReport // disclosures awaiting redelivery
	deferredDropped int64
}

// deferredReport is one disclosure whose transport submission failed and
// is parked for redelivery. Exactly one of env/raw is meaningful,
// selected by isRaw (an agent's policy fixes which).
type deferredReport struct {
	env   Envelope
	raw   RawTuple
	isRaw bool
}

// New builds an agent: it fetches the warm-start model from cfg.Source (or
// starts cold), constructs the local learner and validates every shape the
// configuration pins against the model's. Shape mismatches — an encoder
// with the wrong code-space size, a model for a different action set — fail
// here, loudly, rather than producing silently mismatched reports.
func New(cfg Config) (*Agent, error) {
	if cfg.Alpha == 0 {
		cfg.Alpha = 1
	}
	if cfg.Alpha < 0 {
		return nil, errors.New("agent: Alpha must be >= 0")
	}
	if err := privacy.CheckParticipation(cfg.P); err != nil {
		return nil, fmt.Errorf("agent: %w", err)
	}
	if cfg.ReportWindow < 0 {
		return nil, errors.New("agent: ReportWindow must be >= 0")
	}
	if cfg.DeferReports < 0 {
		return nil, errors.New("agent: DeferReports must be >= 0")
	}
	if cfg.Rand == nil {
		cfg.Rand = rng.New(1)
	}
	// An agent that can never report (no transport, or P = 0 — the Cold
	// regime) skips history recording entirely, keeping its interaction
	// loop free of per-step history allocations.
	a := &Agent{cfg: cfg, r: cfg.Rand, recording: cfg.Transport != nil && cfg.P > 0}
	var err error
	switch cfg.Policy {
	case PolicyTabular:
		err = a.initTabular()
	case PolicyCentroid:
		err = a.initCentroid()
	case PolicyLinUCB:
		err = a.initLinUCB()
	default:
		return nil, fmt.Errorf("agent: unknown policy %d", int(cfg.Policy))
	}
	if err != nil {
		return nil, err
	}
	return a, nil
}

// fetch pulls one model kind from the source, enforcing the kind contract.
func (a *Agent) fetch(kind ModelKind) (Model, error) {
	m, err := a.cfg.Source.Model(kind)
	if err != nil {
		return Model{}, fmt.Errorf("agent: fetching %s model: %w", kind, err)
	}
	switch kind {
	case ModelTabular:
		if m.Tabular == nil {
			return Model{}, errors.New("agent: model source returned no tabular model")
		}
	default:
		if m.Linear == nil {
			return Model{}, fmt.Errorf("agent: model source returned no %s model", kind)
		}
	}
	a.version = m.Version
	a.warm = true
	return m, nil
}

// coldFallback decides whether a failed warm-start fetch degrades to a
// cold learner instead of failing construction. It requires the opt-in
// and a configuration that pins every shape a model would otherwise
// provide; when it returns true the agent is marked degraded.
func (a *Agent) coldFallback() bool {
	if !a.cfg.ColdStartOnError || a.cfg.Arms <= 0 {
		return false
	}
	if a.cfg.Policy != PolicyTabular && a.cfg.Dim <= 0 {
		return false
	}
	a.degraded = true
	return true
}

func (a *Agent) initTabular() error {
	if a.cfg.Encoder == nil {
		return errors.New("agent: the tabular policy requires an Encoder")
	}
	k := a.cfg.Encoder.K()
	var learner *bandit.TabularUCB
	if a.cfg.Source != nil {
		m, err := a.fetch(ModelTabular)
		if err != nil && !a.coldFallback() {
			return err
		}
		if err == nil {
			if m.Tabular.K != k {
				return fmt.Errorf("agent: encoder has %d codes but the global model has %d", k, m.Tabular.K)
			}
			if a.cfg.Arms != 0 && a.cfg.Arms != m.Tabular.Arms {
				return fmt.Errorf("agent: configured %d arms but the global model has %d", a.cfg.Arms, m.Tabular.Arms)
			}
			learner, err = bandit.NewTabularUCBFromState(m.Tabular, a.r.Split("agent"))
			if err != nil {
				return fmt.Errorf("agent: global tabular model unusable: %w", err)
			}
		}
	}
	if learner == nil {
		if a.cfg.Arms <= 0 {
			return errors.New("agent: Arms required when no model source is configured")
		}
		learner = bandit.NewTabularUCB(k, a.cfg.Arms, a.cfg.Alpha, a.r.Split("agent"))
	}
	a.arms = learner.Arms()
	a.selectCtx = func(x []float64) int {
		a.pendingCode = a.cfg.Encoder.Encode(x)
		return learner.SelectCode(a.pendingCode)
	}
	a.update = func(code, action int, reward float64) {
		learner.UpdateCode(code, action, reward)
	}
	return nil
}

func (a *Agent) initCentroid() error {
	if a.cfg.Encoder == nil {
		return errors.New("agent: the centroid policy requires an Encoder")
	}
	dec, ok := a.cfg.Encoder.(encoding.Decoder)
	if !ok {
		return errors.New("agent: the centroid policy requires an encoder that implements Decode")
	}
	learner, err := a.linearLearner(ModelCentroid)
	if err != nil {
		return err
	}
	// Decode into per-agent scratch when the encoder supports it, keeping
	// the per-interaction loop allocation-free.
	decode := dec.Decode
	if dt, ok := dec.(encoding.DecoderTo); ok {
		buf := make([]float64, learner.Dim())
		decode = func(y int) []float64 {
			buf = dt.DecodeTo(buf, y)
			return buf
		}
	}
	a.arms = learner.Arms()
	a.selectCtx = func(x []float64) int {
		a.pendingCode = a.cfg.Encoder.Encode(x)
		return learner.Select(decode(a.pendingCode))
	}
	a.update = func(code, action int, reward float64) {
		learner.Update(decode(code), action, reward)
	}
	return nil
}

func (a *Agent) initLinUCB() error {
	if a.recording {
		// Catch the misconfiguration at construction, not after a session
		// has recorded history Finish would then fail to ship.
		if _, ok := a.cfg.Transport.(RawReporter); !ok {
			return errors.New("agent: the linucb policy reports raw tuples; its Transport must implement RawReporter")
		}
	}
	learner, err := a.linearLearner(ModelLinUCB)
	if err != nil {
		return err
	}
	a.arms = learner.Arms()
	dim := learner.Dim()
	a.selectCtx = func(x []float64) int {
		a.pendingX = append(a.pendingX[:0], x...)
		return learner.Select(x)
	}
	a.update = func(_, action int, reward float64) {
		learner.Update(a.pendingX[:dim], action, reward)
	}
	return nil
}

// linearLearner builds the LinUCB learner shared by the centroid and raw
// policies, warm or cold.
func (a *Agent) linearLearner(kind ModelKind) (*bandit.LinUCB, error) {
	if a.cfg.Source != nil {
		m, err := a.fetch(kind)
		if err != nil && !a.coldFallback() {
			return nil, err
		}
		if err == nil {
			if a.cfg.Dim != 0 && a.cfg.Dim != m.Linear.D {
				return nil, fmt.Errorf("agent: configured dimension %d but the global model has %d", a.cfg.Dim, m.Linear.D)
			}
			if a.cfg.Arms != 0 && a.cfg.Arms != m.Linear.Arms {
				return nil, fmt.Errorf("agent: configured %d arms but the global model has %d", a.cfg.Arms, m.Linear.Arms)
			}
			learner, err := bandit.NewLinUCBFromState(m.Linear, a.r.Split("agent"))
			if err != nil {
				return nil, fmt.Errorf("agent: global %s model unusable: %w", kind, err)
			}
			return learner, nil
		}
	}
	if a.cfg.Arms <= 0 || a.cfg.Dim <= 0 {
		return nil, fmt.Errorf("agent: Arms and Dim required when no model source is configured (policy %s)", a.cfg.Policy)
	}
	return bandit.NewLinUCB(a.cfg.Arms, a.cfg.Dim, a.cfg.Alpha, a.r.Split("agent")), nil
}

// Arms returns the number of actions the agent selects among.
func (a *Agent) Arms() int { return a.arms }

// Policy returns the agent's hypothesis class.
func (a *Agent) Policy() Policy { return a.cfg.Policy }

// WarmStarted reports whether the agent was initialized from a global
// model, and ModelVersion returns that model's version (0 when cold).
func (a *Agent) WarmStarted() bool { return a.warm }

// ModelVersion returns the version of the warm-start model (0 when cold).
func (a *Agent) ModelVersion() uint64 { return a.version }

// Interactions returns how many Select/Observe pairs the agent has run.
func (a *Agent) Interactions() int64 { return a.steps }

// Disclosed returns how many tuples Finish has disclosed in total. A
// disclosure parked by DeferReports counts when the participation draw
// picks it, not when redelivery finally succeeds — the privacy decision
// is made exactly once.
func (a *Agent) Disclosed() int64 { return a.disclosed }

// Degraded reports whether the agent is running on a cold fallback
// learner because its model source failed (see Config.ColdStartOnError).
// A successful Resync clears it.
func (a *Agent) Degraded() bool { return a.degraded }

// PendingReports returns how many disclosed reports are parked awaiting
// redelivery (see Config.DeferReports).
func (a *Agent) PendingReports() int { return len(a.deferred) }

// DroppedReports returns how many deferred reports were discarded because
// the DeferReports buffer overflowed (oldest first).
func (a *Agent) DroppedReports() int64 { return a.deferredDropped }

// Resync re-attempts the warm start against the model source: it fetches
// the current global model, replaces the local learner with it (local
// cold-start learning is superseded, exactly as if New had succeeded
// warm) and clears the degraded flag. Unlike construction with
// ColdStartOnError, a failed Resync does NOT fall back — the agent keeps
// its current learner and stays degraded, and the error says why.
// Deferred reports are re-attempted on success. Resync also serves
// non-degraded agents as an explicit model refresh.
func (a *Agent) Resync() error {
	if a.awaiting {
		return errors.New("agent: Resync called with an unanswered Select")
	}
	if a.cfg.Source == nil {
		return errors.New("agent: Resync requires a model source")
	}
	// Re-run the policy init with the fallback disabled so a source
	// failure surfaces instead of rebuilding another cold learner. On any
	// failure the agent keeps its pre-call learner and version.
	cold := a.cfg.ColdStartOnError
	version, warm := a.version, a.warm
	a.cfg.ColdStartOnError = false
	var err error
	switch a.cfg.Policy {
	case PolicyTabular:
		err = a.initTabular()
	case PolicyCentroid:
		err = a.initCentroid()
	default:
		err = a.initLinUCB()
	}
	a.cfg.ColdStartOnError = cold
	if err != nil {
		a.version, a.warm = version, warm
		return err
	}
	a.degraded = false
	a.drainDeferred()
	return nil
}

// Select returns the action to play for context x. Every Select must be
// answered by exactly one Observe before the next Select; the SDK panics on
// a violated lifecycle, the same contract the underlying learners enforce
// for shape errors.
func (a *Agent) Select(x []float64) int {
	if a.awaiting {
		panic("agent: Select called twice without an intervening Observe")
	}
	action := a.selectCtx(x)
	a.awaiting = true
	return action
}

// Observe incorporates the reward observed for playing action on the
// context of the preceding Select. The action may differ from the selected
// one (an app may override the policy); the learner and the report history
// record what was actually played.
func (a *Agent) Observe(action int, reward float64) {
	if !a.awaiting {
		panic("agent: Observe called without a preceding Select")
	}
	if action < 0 || action >= a.arms {
		panic(fmt.Sprintf("agent: action %d out of range [0, %d)", action, a.arms))
	}
	a.update(a.pendingCode, action, reward)
	if a.recording {
		if a.cfg.Policy == PolicyLinUCB {
			a.rawHistory = append(a.rawHistory, RawTuple{
				Context: append([]float64(nil), a.pendingX...),
				Action:  action,
				Reward:  reward,
			})
		} else {
			a.history = append(a.history, Tuple{Code: a.pendingCode, Action: action, Reward: reward})
		}
	}
	a.awaiting = false
	a.steps++
}

// Finish runs the randomized data reporting step over the interactions
// observed since the last Finish: one independent Bernoulli(P) opportunity
// per report window (or one for the whole span when ReportWindow is 0),
// each disclosing a single uniformly chosen tuple from its window. It
// returns how many tuples were disclosed. The history is consumed either
// way, so a long-lived device alternates sessions and Finish calls without
// unbounded memory growth.
func (a *Agent) Finish() (int, error) {
	if a.awaiting {
		panic("agent: Finish called with an unanswered Select")
	}
	// Reports parked by an earlier transport failure get first claim on a
	// recovered node, in their original order.
	a.drainDeferred()
	n := len(a.history) + len(a.rawHistory) // one of the two is always empty
	defer func() {
		a.history = a.history[:0]
		a.rawHistory = a.rawHistory[:0]
	}()
	if n == 0 || a.cfg.Transport == nil || a.cfg.P == 0 {
		return 0, nil
	}
	var raw RawReporter
	if a.cfg.Policy == PolicyLinUCB {
		// Checked at construction; re-asserted here so a future refactor
		// cannot silently drop the guarantee.
		raw, _ = a.cfg.Transport.(RawReporter)
		if raw == nil {
			return 0, errors.New("agent: the linucb policy reports raw tuples; its Transport must implement RawReporter")
		}
	}
	window := a.cfg.ReportWindow
	if window <= 0 || window > n {
		window = n
	}
	count := 0
	base := a.windowBase
	for w, start := 0, 0; start < n; w, start = w+1, start+window {
		end := start + window
		if end > n {
			end = n
		}
		a.windowBase++
		wr := a.r.SplitIndex("participate", base+w)
		if !privacy.Participates(a.cfg.P, wr) {
			continue
		}
		pick := start + wr.IntN(end-start)
		var meta Metadata
		if a.cfg.ReportMeta != nil {
			meta = a.cfg.ReportMeta(base + w)
		}
		var err error
		if raw != nil {
			err = raw.ReportRaw(a.rawHistory[pick])
		} else {
			err = a.cfg.Transport.Report(Envelope{Meta: meta, Tuple: a.history[pick]})
		}
		if err != nil {
			if a.cfg.DeferReports > 0 {
				// The participation draw stands; only delivery is deferred.
				if raw != nil {
					a.deferReport(deferredReport{raw: a.rawHistory[pick], isRaw: true})
				} else {
					a.deferReport(deferredReport{env: Envelope{Meta: meta, Tuple: a.history[pick]}})
				}
				count++
				continue
			}
			a.disclosed += int64(count)
			return count, fmt.Errorf("agent: reporting window %d: %w", base+w, err)
		}
		count++
	}
	a.disclosed += int64(count)
	return count, nil
}

// drainDeferred redelivers parked reports in order, stopping at the first
// failure (the node is still down; the rest wait for the next attempt).
// Failures are silent by design — deferral exists so transport trouble
// never fails the interaction loop.
func (a *Agent) drainDeferred() {
	if len(a.deferred) == 0 || a.cfg.Transport == nil {
		return
	}
	raw, _ := a.cfg.Transport.(RawReporter)
	i := 0
	for ; i < len(a.deferred); i++ {
		d := a.deferred[i]
		var err error
		if d.isRaw {
			if raw == nil {
				break // checked at construction; unreachable in practice
			}
			err = raw.ReportRaw(d.raw)
		} else {
			err = a.cfg.Transport.Report(d.env)
		}
		if err != nil {
			break
		}
	}
	if i > 0 {
		a.deferred = append(a.deferred[:0], a.deferred[i:]...)
	}
}

// deferReport parks one failed disclosure, dropping the oldest entries
// when the buffer is at its DeferReports cap.
func (a *Agent) deferReport(d deferredReport) {
	if over := len(a.deferred) - a.cfg.DeferReports + 1; over > 0 {
		a.deferredDropped += int64(over)
		a.deferred = append(a.deferred[:0], a.deferred[over:]...)
	}
	a.deferred = append(a.deferred, d)
}
