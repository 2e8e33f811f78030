// Analyzer peering: anti-entropy pushes of each analyzer's LOCAL model
// contribution to its sibling analyzers — triggered by local change under
// a self-scaling rate bound, with a periodic repair push behind it — plus
// an optional pull-based digest round that heals what the pushes missed.
//
// The exchange is state replacement, not delta shipping: every push
// carries the full merged export of the sender's own shards (what the
// sender ingested itself — relay batches and direct reports — never what
// it learned from peers), tagged (origin, epoch, seq). The receiver
// stores at most one contribution per origin and replaces it when a
// newer (epoch, seq) arrives. Replacement is what makes the protocol
// idempotent and order-independent: applying the same update twice, or
// applying updates out of order, converges to the same stored state with
// no double counting and no floating-point subtraction anywhere.
//
// Pushes alone leave a gap: an analyzer partitioned away while its
// siblings pushed converges only when the siblings' NEXT pushes happen to
// arrive — and a sibling whose local state stopped changing skips pushes
// entirely, so the partitioned node could stay behind forever. The digest
// round closes it from the receiving side. On its own schedule, each
// analyzer asks every peer for a digest — the per-origin (epoch, seq)
// high-water vector of everything the peer can serve — compares it
// against what it already holds, and fetches only the missing or newer
// contributions. Because digests also list the peer's STORED third-party
// contributions, healing is transitive: an analyzer that can reach only
// one sibling still converges on the whole fleet's state through it.
package topology

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"p2b/internal/server"
)

// PeerUpdate is one analyzer's local contribution to the fleet model: the
// body of POST /peer/merge and of GET /peer/contrib, in the binary P2BS
// encoding (AppendPeerUpdate, DecodePeerUpdate).
type PeerUpdate struct {
	// Origin names the sending analyzer's contribution stream.
	Origin string
	// Epoch is the sender's boot nonce; sequence numbers reset with it.
	Epoch uint64
	// Seq increases with every push within one epoch. A receiver holding
	// (epoch, seq') with seq' >= seq ignores the update as stale.
	Seq uint64
	// State is the sender's merged local accumulator export — the same
	// additive sufficient statistics a checkpoint stores, without the
	// relay guard, which the encoding never carries.
	State *server.PersistedState
}

// Digest is the body of GET /peer/digest: the per-origin (epoch, seq)
// high-water vector of every contribution the serving analyzer can hand
// out on /peer/contrib — its own live state plus the sibling
// contributions it has stored.
type Digest struct {
	Entries []DigestEntry `json:"entries"`
}

// DigestEntry is one origin's advertised replication position.
type DigestEntry struct {
	Origin string `json:"origin"`
	Epoch  uint64 `json:"epoch"`
	Seq    uint64 `json:"seq"`
}

// SyncStatus is one peer's outbound anti-entropy health, reported on
// /healthz and the stats routes of the pushing node.
type SyncStatus struct {
	Target    string `json:"target"`               // peer base URL
	Pushes    int64  `json:"pushes"`               // successful pushes
	Skipped   int64  `json:"skipped"`              // cycles skipped because local state was unchanged
	Errors    int64  `json:"errors"`               // failed pushes
	LastError string `json:"last_error,omitempty"` // most recent failure, cleared on success
	// LastSyncUnixNano is when the last successful push completed
	// (0 = never). Readers derive peer-merge lag from it.
	LastSyncUnixNano int64 `json:"last_sync_unix_nano"`

	// Digest-round (pull) health, all zero when pulls are disabled.
	Pulls      int64 `json:"pulls,omitempty"`       // completed digest rounds against this peer
	PullErrors int64 `json:"pull_errors,omitempty"` // digest rounds that failed (fetch or apply)
	Fetched    int64 `json:"fetched,omitempty"`     // contributions fetched and applied via digest rounds

	// Background-loop health, zero while only manual Sync calls run.
	Triggered   int64   `json:"triggered"`     // push rounds started by a local change rather than the repair ticker
	LastRoundMs float64 `json:"last_round_ms"` // wall time of the loop's most recent push round, all peers included
}

// PeeringOptions configures an analyzer's outbound anti-entropy loop.
type PeeringOptions struct {
	// Origin names this analyzer's contribution stream. Required.
	Origin string
	// Epoch qualifies push sequence numbers across restarts. Zero selects
	// a fresh boot nonce.
	Epoch uint64
	// Peers are the sibling analyzers' base URLs. Required (non-empty).
	Peers []string
	// Interval is the repair push period (default 2s). With Changed nil it
	// is the only push trigger, and convergence lag between analyzers is
	// bounded by roughly one interval plus transfer time; with Changed set
	// it is the retry cadence after a failed push and the cap on the
	// hold-off between change-triggered rounds.
	Interval time.Duration
	// Token, when non-empty, authenticates pushes as a bearer token.
	Token string
	// Export returns the analyzer's current LOCAL state (its own shards
	// only, never peer contributions — exporting those would echo every
	// peer's data back at it through third parties, and while replacement
	// semantics keep that correct, it wastes bandwidth and muddies origin
	// accounting). Required.
	Export func() *server.PersistedState
	// LocalVersion returns a counter that changes whenever local state
	// changes; unchanged versions skip the push. It doubles as the push
	// sequence number: a push is stamped with the version captured BEFORE
	// the export, so the advertised seq is a floor on the exported content
	// and matches what the receiver's digest later reports for this
	// origin. Nil pushes every cycle under a private counter — fine for
	// push-only fleets, but the digest round requires it (the /peer/digest
	// self entry is stamped from the same counter, and mixed stamping
	// would let a digest under-report a pushed position and mask a
	// missing fetch).
	LocalVersion func() uint64
	// Changed, when non-nil, wakes the Start loop after a local state
	// change (wire it to server.LocalChanged): the loop pushes at once if
	// idle, otherwise once more when the current hold-off ends. Signals
	// may coalesce but one must follow every change. Nil leaves the
	// Interval ticker as the only push trigger.
	Changed <-chan struct{}
	// Client overrides the HTTP client (tests).
	Client *http.Client
	// Logf receives push failures. Nil discards them.
	Logf func(format string, args ...any)

	// The digest round (pull-based anti-entropy). Zero DigestInterval
	// disables it and the remaining fields are ignored.

	// DigestInterval is the pull period. Each round asks every peer for
	// its digest and fetches only the contributions this node is missing,
	// so a partitioned analyzer converges on its own schedule even if no
	// peer ever pushes to it again.
	DigestInterval time.Duration
	// Local returns the per-origin positions this node already holds (its
	// stored sibling contributions; its own origin is never fetched, so
	// listing it is optional). Required when DigestInterval > 0.
	Local func() []DigestEntry
	// Apply stores one fetched contribution, with the same
	// replace-if-newer semantics as an inbound push (wire it to
	// server.MergePeerState). false means the update was already covered.
	// Required when DigestInterval > 0.
	Apply func(PeerUpdate) (bool, error)
}

// Peering runs the outbound anti-entropy loop of one analyzer.
type Peering struct {
	opts   PeeringOptions
	client *http.Client

	mu     sync.Mutex
	seq    uint64
	states map[string]*SyncStatus // keyed by peer URL
	lastV  map[string]uint64      // local version last pushed per peer
	pushed map[string]bool        // whether lastV entry is valid
	enc    []byte                 // the push body, reused round after round

	stop chan struct{}
	done chan struct{}
}

// NewPeering validates opts and returns a peering loop; call Start to run
// it. Sync (one push cycle) can also be driven manually, which is what
// deterministic tests do.
func NewPeering(opts PeeringOptions) (*Peering, error) {
	if opts.Origin == "" {
		return nil, fmt.Errorf("topology: peering needs an origin name")
	}
	if len(opts.Peers) == 0 {
		return nil, fmt.Errorf("topology: peering needs at least one peer URL")
	}
	if opts.Export == nil {
		return nil, fmt.Errorf("topology: peering needs an Export func")
	}
	if opts.DigestInterval > 0 && (opts.Local == nil || opts.Apply == nil) {
		return nil, fmt.Errorf("topology: the digest round needs Local and Apply funcs")
	}
	if opts.Epoch == 0 {
		opts.Epoch = BootEpoch()
	}
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	p := &Peering{
		opts:   opts,
		client: client,
		states: make(map[string]*SyncStatus, len(opts.Peers)),
		lastV:  make(map[string]uint64, len(opts.Peers)),
		pushed: make(map[string]bool, len(opts.Peers)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for _, peer := range opts.Peers {
		p.states[peer] = &SyncStatus{Target: peer}
	}
	return p, nil
}

// The duty bound on change-triggered pushing: after a push round that took
// t the loop holds off for holdoffFactor·t, so rounds consume at most
// 1/(1+holdoffFactor) = 5% of wall time whatever the model shape costs to
// export, encode and merge, and the cadence backs off by itself when the
// box or the peer slows down. holdoffFloor keeps near-free rounds (nothing
// to push) from spinning; the ceiling is the repair Interval, so a slow or
// blackholed peer never delays a retry for longer than the ticker alone
// would have.
const (
	holdoffFactor = 19
	holdoffFloor  = 5 * time.Millisecond
)

// holdoff is the quiet time after a push round that took the given time.
func holdoff(took, interval time.Duration) time.Duration {
	return min(max(holdoffFactor*took, holdoffFloor), interval)
}

// Start launches the background loop. A push round runs when local state
// changes (PeeringOptions.Changed) — at once if the loop is idle (leading
// edge), otherwise exactly once more when the hold-off after the previous
// round ends (trailing edge), so a change is never lost and never waits
// for a timer phase — and every Interval regardless, as the repair path
// for failed pushes. When the digest round is enabled it pulls every
// DigestInterval. One goroutine drives all of it, so rounds never
// interleave. Stop it with Close.
func (p *Peering) Start() {
	go func() {
		defer close(p.done)
		push := time.NewTicker(p.opts.Interval)
		defer push.Stop()
		var pull <-chan time.Time
		if p.opts.DigestInterval > 0 {
			t := time.NewTicker(p.opts.DigestInterval)
			defer t.Stop()
			pull = t.C
		}
		// quiet fires when the hold-off after the last round ends. While one
		// is pending the loop does not listen for changes at all: the first
		// signal parks in the Changed channel's single slot and later ones
		// are dropped at the sender, so a busy analyzer wakes this goroutine
		// once per round, not once per delivered batch, and the parked
		// signal is what triggers the trailing round.
		quiet := time.NewTimer(p.opts.Interval)
		defer quiet.Stop()
		quiet.Stop() // armed by a round, never before one
		changed := p.opts.Changed
		round := func(triggered bool) {
			start := wallClock()
			p.Sync()
			took := wallClock().Sub(start)
			p.noteRound(triggered, took)
			quiet.Reset(holdoff(took, p.opts.Interval))
			changed = nil
		}
		for {
			select {
			case <-p.stop:
				return
			case <-push.C:
				round(false)
			case <-pull:
				p.DigestSync()
			case <-changed:
				round(true)
			case <-quiet.C:
				changed = p.opts.Changed
			}
		}
	}()
}

// noteRound records one background push round on every peer's status.
func (p *Peering) noteRound(triggered bool, took time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, st := range p.states {
		if triggered {
			st.Triggered++
		}
		st.LastRoundMs = float64(took) / float64(time.Millisecond)
	}
}

// Close stops the push loop after finishing any in-flight cycle. A final
// Sync before Close hands the peers everything local.
func (p *Peering) Close() {
	select {
	case <-p.stop:
		return
	default:
	}
	close(p.stop)
	<-p.done
}

// Sync runs one push cycle: export local state once, send it to every
// peer whose copy is stale. Safe to call concurrently with the background
// loop (cycles serialize on the internal mutex).
func (p *Peering) Sync() {
	p.mu.Lock()
	defer p.mu.Unlock()
	var version uint64
	if p.opts.LocalVersion != nil {
		version = p.opts.LocalVersion()
	}
	// One encoded export serves every peer this round, made when the first
	// stale peer is found.
	var body []byte
	var encErr error
	for _, peer := range p.opts.Peers {
		st := p.states[peer]
		if p.opts.LocalVersion != nil && p.pushed[peer] && p.lastV[peer] == version {
			st.Skipped++
			continue
		}
		if body == nil && encErr == nil {
			body, encErr = p.encode(version)
		}
		err := encErr
		if err == nil {
			err = p.push(peer, body)
		}
		if err != nil {
			st.Errors++
			st.LastError = err.Error()
			if p.opts.Logf != nil {
				p.opts.Logf("topology: peer push to %s: %v", peer, err)
			}
			// A transport may still be reading a body it failed to send
			// (net/http closes request bodies asynchronously), so the next
			// round must not overwrite it.
			p.enc = nil
			continue
		}
		st.Pushes++
		st.LastError = ""
		st.LastSyncUnixNano = wallClock().UnixNano()
		p.lastV[peer] = version
		p.pushed[peer] = true
	}
}

// encode exports local state and encodes it as this round's push body.
// The receiving side keys staleness on (epoch, seq), so all peers sharing
// one seq is exactly right. The stamp is the local version captured
// before the export: the exported content is at least that version (a
// concurrent ingest can only add), so the receiver's stored position is a
// floor and the worst a race costs is one redundant re-push — never a
// missed update. The digest round's /peer/digest self entry reads the
// same counter, so pushed and pulled positions agree.
func (p *Peering) encode(version uint64) ([]byte, error) {
	seq := version
	if p.opts.LocalVersion == nil {
		p.seq++
		seq = p.seq
	}
	enc, err := AppendPeerUpdate(p.enc[:0], PeerUpdate{
		Origin: p.opts.Origin,
		Epoch:  p.opts.Epoch,
		Seq:    seq,
		State:  p.opts.Export(),
	})
	if err != nil {
		return nil, fmt.Errorf("topology: encoding peer update: %w", err)
	}
	p.enc = enc
	return enc, nil
}

func (p *Peering) push(peer string, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, peer+"/peer/merge", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("topology: building merge request: %w", err)
	}
	req.Header.Set("Content-Type", ContentTypePeerState)
	if p.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+p.opts.Token)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	// A stale ack (applied=false) is success: the peer already holds a
	// contribution at least this new, which is all anti-entropy wants.
	_, err = decodePeerAck(resp)
	return err
}

// DigestSync runs one pull round: fetch every peer's digest, diff it
// against the positions this node already holds, and fetch + apply only
// the missing or newer contributions. Safe to call concurrently with the
// background loop and with Sync (rounds serialize on the internal mutex);
// deterministic tests drive it manually.
func (p *Peering) DigestSync() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.opts.Local == nil || p.opts.Apply == nil {
		return
	}
	// One holdings snapshot serves the whole round; applied fetches update
	// it so a contribution available from several peers is fetched once.
	held := make(map[string]server.PeerSeq)
	for _, e := range p.opts.Local() {
		held[e.Origin] = server.PeerSeq{Epoch: e.Epoch, Seq: e.Seq}
	}
	for _, peer := range p.opts.Peers {
		st := p.states[peer]
		var digest Digest
		if err := p.getJSON(peer+"/peer/digest", &digest); err != nil {
			st.PullErrors++
			st.LastError = err.Error()
			if p.opts.Logf != nil {
				p.opts.Logf("topology: peer digest from %s: %v", peer, err)
			}
			continue
		}
		failed := false
		for _, e := range digest.Entries {
			if e.Origin == p.opts.Origin {
				// Never fetch our own contribution back: local state is
				// authoritative for it, and a peer's stored copy is at best
				// an older echo.
				continue
			}
			if pos, ok := held[e.Origin]; ok && pos.Covers(e.Epoch, e.Seq) {
				continue
			}
			upd, err := p.fetchContrib(peer, e.Origin)
			if err == nil && upd.Origin != e.Origin {
				err = fmt.Errorf("topology: peer %s served origin %q for a %q contribution fetch", peer, upd.Origin, e.Origin)
			}
			if err == nil {
				var applied bool
				applied, err = p.opts.Apply(upd)
				if err == nil {
					if applied {
						st.Fetched++
					}
					// Covered either way: an applied=false means local state
					// moved past the digest mid-round, which is just as held.
					held[e.Origin] = server.PeerSeq{Epoch: upd.Epoch, Seq: upd.Seq}
				}
			}
			if err != nil {
				failed = true
				st.LastError = err.Error()
				if p.opts.Logf != nil {
					p.opts.Logf("topology: peer contrib %q from %s: %v", e.Origin, peer, err)
				}
			}
		}
		if failed {
			st.PullErrors++
		} else {
			st.Pulls++
		}
	}
}

// fetchContrib retrieves one origin's contribution from peer as the same
// PeerUpdate a push carries, read through the bound the merge route
// applies, so Apply and the inbound merge route share semantics exactly.
func (p *Peering) fetchContrib(peer, origin string) (PeerUpdate, error) {
	resp, err := p.get(peer + "/peer/contrib?origin=" + url.QueryEscape(origin))
	if err != nil {
		return PeerUpdate{}, err
	}
	defer resp.Body.Close()
	return ReadPeerUpdate(resp.Body, resp.ContentLength)
}

// getJSON is an authenticated GET + JSON decode against a peer route.
func (p *Peering) getJSON(u string, v any) error {
	resp, err := p.get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// get is an authenticated GET against a peer route; anything but a 200 is
// an error. The caller closes the body.
func (p *Peering) get(u string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("topology: building peer request: %w", err)
	}
	if p.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+p.opts.Token)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%s: status %d: %s", u, resp.StatusCode, msg)
	}
	return resp, nil
}

// Status returns the per-peer outbound sync status, sorted by target URL.
func (p *Peering) Status() []SyncStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]SyncStatus, 0, len(p.states))
	for _, st := range p.states {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target < out[j].Target })
	return out
}
