// Package core wires P2B together: local bandit agents, the context
// encoder, randomized participation, the shuffler and the analyzer server
// (paper §3, Figure 1). It provides the population simulator every
// experiment in the evaluation runs on.
//
// Every simulated user is a real device agent: core drives the public
// p2b/agent SDK (Select/Observe/Finish over an in-process agent.Loopback
// transport and model source), so the simulator exercises exactly the code
// a deployed fleet ships — the device-side loop exists once, in the SDK,
// not here.
//
// A System is configured with one of three modes, matching the paper's
// §5 comparison:
//
//   - Cold: each agent learns only from its own interactions. Full privacy,
//     no sharing, cold-start behaviour.
//   - WarmNonPrivate: agents ship every raw (context, action, reward) tuple
//     to the server and warm-start from the server's LinUCB model. No
//     privacy.
//   - WarmPrivate: the P2B pipeline. Agents operate on encoded contexts,
//     warm-start from the server's tabular model, and with probability P
//     submit a single encoded tuple through the shuffler.
//
// A System runs its users serially, in the order given, and every user draws
// its randomness from a substream keyed by user id, so a run's results are
// exact: the same config, environment and ids give the same bytes. Callers
// that want parallelism run independent Systems concurrently (one per
// figure cell); a System shares no mutable state with another.
package core

import (
	"errors"
	"fmt"
	"math"

	"p2b/agent"
	"p2b/internal/encoding"
	"p2b/internal/privacy"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/stats"
)

// Mode selects which of the paper's three regimes a System runs.
type Mode int

const (
	// Cold runs standalone local agents with no communication.
	Cold Mode = iota
	// WarmNonPrivate shares raw contexts with the server.
	WarmNonPrivate
	// WarmPrivate runs the P2B pipeline: encode, sample, shuffle, aggregate.
	WarmPrivate
)

// String returns the mode's name as used in the paper's figures.
func (m Mode) String() string {
	switch m {
	case Cold:
		return "cold"
	case WarmNonPrivate:
		return "warm-nonprivate"
	case WarmPrivate:
		return "warm-private"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Environment is a bandit workload: it describes the context space and
// action set and creates per-user interaction sessions. The synthetic,
// multi-label and ad-log substrates all implement it.
type Environment interface {
	// Dim returns the context dimension.
	Dim() int
	// Arms returns the number of actions.
	Arms() int
	// User creates the interaction session of the given user. The session
	// may only be used by the calling goroutine.
	User(id int, r *rng.Rand) UserSession
	// SampleContexts draws n contexts from the environment's context
	// distribution. P2B fits the shared encoder on such a public sample.
	SampleContexts(n int, r *rng.Rand) [][]float64
}

// UserSession yields one user's contexts and bandit feedback.
type UserSession interface {
	// Context returns the context of interaction t (t = 0, 1, ...).
	Context(t int) []float64
	// Reward returns the reward for playing action at interaction t.
	Reward(t, action int) float64
}

// Learner selects the hypothesis class of warm-private agents. The paper
// states that "private agents use the encoded value as the context" (§5.3)
// without fixing the representation; both natural readings are implemented
// and ablated (see DESIGN.md):
type Learner int

const (
	// LearnerTabular keeps per-(code, action) statistics — LinUCB over
	// one-hot codes. It can represent arbitrary per-cluster structure but
	// needs on the order of K*Arms observations, so it suits small code
	// spaces (the paper's real-data experiments, k = 2^5..2^7).
	LearnerTabular Learner = iota
	// LearnerCentroid runs LinUCB over the code's decoded representative
	// (the cluster centroid). It pools observations across codes through
	// the linear model, so it stays sample-efficient at large K (the
	// paper's synthetic experiments, k = 2^10). Requires an encoder that
	// implements Decode.
	LearnerCentroid
)

// String names the learner for tables and logs.
func (l Learner) String() string {
	switch l {
	case LearnerTabular:
		return "tabular"
	case LearnerCentroid:
		return "centroid"
	default:
		return fmt.Sprintf("learner(%d)", int(l))
	}
}

// Config parameterizes a System. Zero values fall back to the paper's
// defaults where one exists.
type Config struct {
	Mode Mode
	// T is the number of local interactions per user (paper: 10-300
	// depending on experiment).
	T int
	// P is the participation probability of the randomized reporting step.
	// The paper fixes P = 0.5 for epsilon = ln 2.
	P float64
	// Alpha is the UCB exploration parameter (paper: 1).
	Alpha float64
	// K is the encoder code space size (private mode). Ignored when an
	// explicit encoder is supplied. Without an encoder it still sizes the
	// server's tabular model and the default BatchSize.
	K int
	// Threshold is the shuffler's crowd-blending threshold l (paper: 10
	// for the real-data experiments; small populations need a smaller l,
	// which the paper notes can always be matched to the threshold).
	Threshold int
	// BatchSize is the shuffler batch size. It defaults to
	// privacy.DefaultBatchSize(K, Threshold): a code's expected frequency
	// in a batch is BatchSize/K, which must comfortably clear the
	// threshold or the thresholding step consumes everything.
	BatchSize int
	// PrivateLearner selects the warm-private agents' hypothesis class
	// (default LearnerTabular).
	PrivateLearner Learner
	// ReportWindow divides a session into windows of this many
	// interactions, each giving one independent Bernoulli(P) participation
	// opportunity (one tuple sampled from the window). 0 means a single
	// opportunity over the whole session — the paper's single-disclosure
	// regime (§6). With w = T/ReportWindow windows the accountant reports
	// the composed budget w*P*epsilon in expectation; the paper's
	// composition remark prices r disclosures at r*epsilon.
	ReportWindow int
	// EncoderSample is how many public contexts the k-means encoder is
	// fitted on when no encoder is supplied (default 4096).
	EncoderSample int
	// Seed is the root seed all randomness derives from.
	Seed uint64
}

func (c *Config) fillDefaults() {
	if c.T == 0 {
		c.T = 10
	}
	if c.Alpha == 0 {
		c.Alpha = 1
	}
	if c.K == 0 {
		c.K = 1 << 5
	}
	if c.EncoderSample == 0 {
		c.EncoderSample = 4096
	}
}

func (c *Config) validate() error {
	if c.T < 1 {
		return errors.New("core: T must be >= 1")
	}
	if err := privacy.CheckParticipation(c.P); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.Alpha < 0 {
		return errors.New("core: Alpha must be >= 0")
	}
	if c.Threshold < 0 {
		return errors.New("core: Threshold must be >= 0")
	}
	if c.Mode != Cold && c.Mode != WarmNonPrivate && c.Mode != WarmPrivate {
		return fmt.Errorf("core: unknown mode %d", int(c.Mode))
	}
	if c.PrivateLearner != LearnerTabular && c.PrivateLearner != LearnerCentroid {
		return fmt.Errorf("core: unknown private learner %d", int(c.PrivateLearner))
	}
	if c.ReportWindow < 0 {
		return errors.New("core: ReportWindow must be >= 0")
	}
	return nil
}

// System is one configured P2B deployment over an environment. It is
// driven by one goroutine at a time; independent Systems may run
// concurrently.
type System struct {
	cfg  Config
	env  Environment
	enc  encoding.Encoder
	srv  *server.Server
	shuf *shuffler.Shuffler
	loop *agent.Loopback // the Transport + ModelSource simulated agents run on
	acct *privacy.Accountant
	root *rng.Rand

	submitted int64 // tuples sent into the shuffler
	usersRun  int64
}

// NewSystem builds a system over env. enc may be nil, in which case the
// private mode fits a k-means encoder with cfg.K codes on a public context
// sample; the other modes never encode, so they fit nothing.
func NewSystem(cfg Config, env Environment, enc encoding.Encoder) (*System, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if env.Dim() < 1 || env.Arms() < 1 {
		return nil, fmt.Errorf("core: environment has invalid shape d=%d arms=%d", env.Dim(), env.Arms())
	}
	root := rng.New(cfg.Seed)
	if enc == nil && cfg.Mode == WarmPrivate {
		// rng.Split is pure, so skipping these streams in the other modes
		// moves no other stream.
		sample := env.SampleContexts(cfg.EncoderSample, root.Split("encoder-sample"))
		var err error
		enc, err = encoding.FitKMeans(sample, cfg.K, 50, 1e-6, root.Split("encoder-fit"))
		if err != nil {
			return nil, fmt.Errorf("core: fitting encoder: %w", err)
		}
	}
	k := cfg.K
	var decoder server.Decoder
	if enc != nil {
		k = enc.K()
		decoder, _ = enc.(encoding.Decoder)
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = privacy.DefaultBatchSize(k, cfg.Threshold)
	}
	if cfg.Mode == WarmPrivate && cfg.PrivateLearner == LearnerCentroid && decoder == nil {
		return nil, errors.New("core: the centroid learner requires an encoder that implements Decode")
	}
	srv := server.New(server.Config{
		K:       k,
		Arms:    env.Arms(),
		D:       env.Dim(),
		Alpha:   cfg.Alpha,
		Seed:    cfg.Seed,
		Decoder: decoder,
	})
	shuf := shuffler.New(shuffler.Config{
		BatchSize: cfg.BatchSize,
		Threshold: cfg.Threshold,
	}, srv, root.Split("shuffler"))
	return &System{
		cfg:  cfg,
		env:  env,
		enc:  enc,
		srv:  srv,
		shuf: shuf,
		loop: agent.NewLoopback(shuf, srv),
		acct: privacy.NewAccountant(privacy.Epsilon(cfg.P)),
		root: root,
	}, nil
}

// Config returns the system's configuration (with defaults filled).
func (s *System) Config() Config { return s.cfg }

// Encoder returns the shared context encoder. It is nil when the mode
// encodes nothing (Cold, WarmNonPrivate) and none was supplied.
func (s *System) Encoder() encoding.Encoder { return s.enc }

// Server returns the analyzer server, for inspection.
func (s *System) Server() *server.Server { return s.srv }

// Shuffler returns the shuffler, for inspection.
func (s *System) Shuffler() *shuffler.Shuffler { return s.shuf }

// Accountant returns the privacy budget accountant.
func (s *System) Accountant() *privacy.Accountant { return s.acct }

// Epsilon returns the per-disclosure differential privacy guarantee of the
// deployment: Equation 3's epsilon for the private mode, 0 for Cold (no
// data ever leaves the device), and +Inf for the non-private baseline.
func (s *System) Epsilon() float64 {
	switch s.cfg.Mode {
	case Cold:
		return 0
	case WarmPrivate:
		return privacy.Epsilon(s.cfg.P)
	default:
		return math.Inf(1)
	}
}

// RunResult aggregates the rewards of a batch of simulated users.
type RunResult struct {
	// Overall pools every interaction's reward.
	Overall stats.Running
	// ByStep[t] pools the rewards observed at local interaction t across
	// users; prefix means of it give "accuracy after n local interactions"
	// curves (Figures 6 and 7).
	ByStep []stats.Running
}

// merge folds other into r.
func (r *RunResult) merge(other RunResult) {
	r.Overall.Merge(other.Overall)
	if len(r.ByStep) < len(other.ByStep) {
		grown := make([]stats.Running, len(other.ByStep))
		copy(grown, r.ByStep)
		r.ByStep = grown
	}
	for t := range other.ByStep {
		r.ByStep[t].Merge(other.ByStep[t])
	}
}

// PrefixMean returns the mean reward over the first n local interactions,
// i.e. the paper's accuracy/CTR after n interactions.
func (r *RunResult) PrefixMean(n int) float64 {
	if n > len(r.ByStep) {
		n = len(r.ByStep)
	}
	var agg stats.Running
	for t := 0; t < n; t++ {
		agg.Merge(r.ByStep[t])
	}
	return agg.Mean()
}

// RunUsers simulates the given user ids serially, in order. When
// participate is true, users feed the data collection pipeline according to
// the system's mode; evaluation cohorts pass false so measurement never
// contaminates the global model.
func (s *System) RunUsers(ids []int, participate bool) RunResult {
	var res RunResult
	for _, id := range ids {
		res.merge(s.runUser(id, participate))
	}
	return res
}

// RunRange simulates users with ids in [start, start+n).
func (s *System) RunRange(start, n int, participate bool) RunResult {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = start + i
	}
	return s.RunUsers(ids, participate)
}

// agentFor builds the device agent of one simulated user. All three modes
// run on the same public agent.Agent; they differ only in policy and in
// which deployment seams are wired:
//
//   - Cold: LinUCB over raw contexts, no source, no transport.
//   - WarmNonPrivate: LinUCB over raw contexts, warm-started from the
//     global LinUCB model, raw tuples reported through the loopback's
//     RawReporter. The baseline follows the same randomized reporting
//     protocol as P2B — per window, with probability P, one sampled tuple
//     — but transmits the context in its original form. This keeps the
//     data volumes of the two warm regimes identical, so their gap
//     isolates the cost of encoding + privacy rather than of sample
//     count; it is the only reading under which the paper's few-percent
//     gaps are reachable.
//   - WarmPrivate: the P2B pipeline — encoded contexts, warm start from
//     the tabular (or centroid) global model, envelopes through the
//     shuffler.
func (s *System) agentFor(id int, r *rng.Rand) (*agent.Agent, error) {
	cfg := agent.Config{
		Alpha: s.cfg.Alpha,
		Rand:  r,
	}
	switch s.cfg.Mode {
	case Cold:
		cfg.Policy = agent.PolicyLinUCB
		cfg.Arms = s.env.Arms()
		cfg.Dim = s.env.Dim()
	case WarmNonPrivate:
		cfg.Policy = agent.PolicyLinUCB
		cfg.P = s.cfg.P
		cfg.ReportWindow = s.cfg.ReportWindow
		cfg.Source = s.loop
		cfg.Transport = s.loop
	case WarmPrivate:
		if s.cfg.PrivateLearner == LearnerCentroid {
			cfg.Policy = agent.PolicyCentroid
		} else {
			cfg.Policy = agent.PolicyTabular
		}
		cfg.P = s.cfg.P
		cfg.ReportWindow = s.cfg.ReportWindow
		cfg.Encoder = s.enc
		cfg.Source = s.loop
		cfg.Transport = s.loop
		device := fmt.Sprintf("device-%08d", id)
		cfg.ReportMeta = func(w int) agent.Metadata {
			// Simulated identity a real network stack would expose, so the
			// shuffler has something to prove it strips.
			return agent.Metadata{
				DeviceID: device,
				Addr:     fmt.Sprintf("10.%d.%d.%d:443", id>>16&0xff, id>>8&0xff, id&0xff),
				SentAt:   int64(id)*1_000_003 + int64(w) + 1,
			}
		}
	}
	return agent.New(cfg)
}

// runUser simulates one user's T local interactions and (optionally) its
// participation in data collection, by driving the public SDK lifecycle:
// Select/Observe per interaction, Finish for the randomized reporting
// step. It returns the user's reward profile.
func (s *System) runUser(id int, participate bool) RunResult {
	r := s.root.SplitIndex("user", id)
	session := s.env.User(id, r.Split("session"))
	res := RunResult{ByStep: make([]stats.Running, s.cfg.T)}
	s.usersRun++

	ag, err := s.agentFor(id, r)
	if err != nil {
		// NewSystem validated every shape the agent re-checks, so this is a
		// bug (e.g. the server produced an invalid snapshot), not bad input.
		panic("core: building user agent: " + err.Error())
	}
	for t := 0; t < s.cfg.T; t++ {
		x := session.Context(t)
		a := ag.Select(x)
		reward := session.Reward(t, a)
		ag.Observe(a, reward)
		res.Overall.Add(reward)
		res.ByStep[t].Add(reward)
	}
	if !participate {
		return res
	}
	n, err := ag.Finish()
	if err != nil {
		panic("core: user reporting rejected: " + err.Error())
	}
	if s.cfg.Mode == WarmPrivate && n > 0 {
		device := fmt.Sprintf("device-%08d", id)
		for i := 0; i < n; i++ {
			s.acct.Record(device)
		}
		s.submitted += int64(n)
	}
	return res
}

// Flush pushes any pending shuffler buffer through thresholding to the
// server. Call between population rounds so a measurement sees all data
// collected so far.
func (s *System) Flush() { s.shuf.Flush() }

// Submitted returns how many tuples users have sent into the shuffler.
func (s *System) Submitted() int64 { return s.submitted }

// UsersRun returns how many user sessions have been simulated.
func (s *System) UsersRun() int64 { return s.usersRun }
