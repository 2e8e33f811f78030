// Package node assembles one P2B process from its components. The paper's
// system has three parts — on-device agents, a trusted shuffler and the
// analyzer server — and a fleet role is nothing more than which of the
// server-side parts a process runs:
//
//	role      shuffler  forwarder  server  peer surface
//	relay     yes       yes        -       -
//	analyzer  yes       -          yes     yes
//	combined  yes       -          yes     yes
//
// Open builds them in the one order that is correct, and Shutdown takes
// them down in the one order that loses nothing; cmd/p2bnode, the
// in-process fleet tests and any future role all go through it instead of
// re-typing the wiring. The ordering rules it owns:
//
//   - the forwarder exists before the shuffler (it is the shuffler's sink)
//     and before the persist manager (it is the cursor the manager
//     restores), so recovery re-stamps the pre-crash (epoch, seq) before
//     WAL replay can re-forward a single batch;
//   - the forwarder's pre-send sync hook is installed as soon as the
//     manager exists, before the handler can admit traffic;
//   - the board heartbeat starts only once the listener is bound (Start),
//     so discovery never announces an unreachable node;
//   - on exit: leave the board, drain HTTP, flush the shuffler through
//     the WAL, checkpoint, close the log, and only then push the final
//     local state to the peers — the flush has landed in the server by
//     then, so the last push carries the node's complete contribution.
package node

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"p2b/internal/httpapi"
	"p2b/internal/metrics"
	"p2b/internal/persist"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/topology"
)

// Config is everything that distinguishes one node from another: what the
// p2bnode flags carry, grouped by the component each value configures.
type Config struct {
	// Role selects the components (see the package table). Empty means
	// combined.
	Role topology.Role
	// Name is the node's origin in the peer protocols and its name on the
	// bulletin board. Required.
	Name string
	// Advertise is the base URL other fleet members reach this node at;
	// only announced, never dialed. Required with Registry.
	Advertise string

	// Server sizes the analyzer state (-k, -arms, -d, -alpha, -shards).
	// A relay builds one too — the persist layer checkpoints through it —
	// and advertises its shapes on /healthz. Server.Seed also seeds the
	// shuffler's permutation stream.
	Server server.Config
	// Shuffler sets the privacy batch size and crowd-blending threshold.
	Shuffler shuffler.Config
	// Admission bounds the ingest routes.
	Admission httpapi.AdmissionConfig
	// WALPolicy selects fail-closed or degrade when the log refuses a write.
	WALPolicy httpapi.WALPolicy

	// DataDir holds the WAL and checkpoints. Empty runs in memory only.
	DataDir string
	// Persist tunes the durable node (-wal-sync, -checkpoint-interval,
	// -wal-retain). Open fills in Metrics, Cursor and, when nil, Logf.
	Persist persist.Options

	// Downstream is the analyzer a relay forwards finished batches to.
	// Required on a relay, refused elsewhere.
	Downstream string
	// Peers are the sibling analyzers local state is pushed to — whenever it
	// changes, and every PeerSync as repair — and missing contributions are
	// pulled from every DigestSync (0 = pushes only). Refused on a relay.
	Peers      []string
	PeerSync   time.Duration
	DigestSync time.Duration
	// PeerToken is required on inbound /peer/* routes and sent on outbound
	// peer traffic. Empty leaves the peer surface open.
	PeerToken string
	// Registry is the bulletin board this node announces itself on every
	// RegistryTTL/3. Empty announces nowhere.
	Registry    string
	RegistryTTL time.Duration

	// Logf receives recovery, peering and shutdown progress. Nil uses
	// log.Printf.
	Logf func(format string, args ...any)
}

// Node is one assembled process: the components its role runs, the HTTP
// surface composed from them, and the background loops that keep it
// discoverable and converged.
type Node struct {
	cfg     Config
	srv     *server.Server
	fwd     *topology.Forwarder // relay only
	shuf    *shuffler.Shuffler
	mgr     *persist.Manager  // durable only
	peering *topology.Peering // with Peers only
	hb      *topology.Heartbeat
	http    *http.Server
}

// Open validates cfg, builds the node's components and recovers any
// durable state. The returned node serves nothing yet: call ListenAndServe,
// or mount Handler on a listener of your own and then Start.
func Open(cfg Config) (*Node, error) {
	if cfg.Role == "" {
		cfg.Role = topology.RoleCombined
	}
	relay := cfg.Role == topology.RoleRelay
	switch {
	case !cfg.Role.Valid():
		return nil, fmt.Errorf("node: unknown role %q", cfg.Role)
	case cfg.Name == "":
		return nil, errors.New("node: a node needs a name")
	case relay && cfg.Downstream == "":
		return nil, errors.New("node: -role relay requires -downstream (the analyzer URL batches forward to)")
	case !relay && cfg.Downstream != "":
		return nil, errors.New("node: -downstream only makes sense with -role relay")
	case relay && len(cfg.Peers) > 0:
		return nil, errors.New("node: -peers only makes sense on analyzer or combined nodes (relays forward, they do not merge)")
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	n := &Node{cfg: cfg, srv: server.New(cfg.Server)}

	// The shuffler's sink decides the role's data path: combined and
	// analyzer nodes deliver finished privacy batches into the local
	// server, a relay forwards them downstream over the P2B1 wire.
	var sink shuffler.Sink = n.srv
	if relay {
		var err error
		n.fwd, err = topology.NewForwarder(cfg.Downstream, topology.ForwarderOptions{
			Origin: cfg.Name, Token: cfg.PeerToken, Logf: cfg.Logf,
		})
		if err != nil {
			return nil, err
		}
		sink = n.fwd
	}
	n.shuf = shuffler.New(cfg.Shuffler, sink, rng.New(cfg.Server.Seed).Split("shuffler"))

	reg := metrics.NewRegistry()
	opts := httpapi.NodeOptions{
		Admission: httpapi.NewAdmission(cfg.Admission),
		WALPolicy: cfg.WALPolicy,
		Metrics:   reg,
		Role:      string(cfg.Role),
		Forward:   n.fwd,
		Shapes:    httpapi.ModelShapes{K: cfg.Server.K, Arms: cfg.Server.Arms, D: cfg.Server.D},
	}
	if cfg.DataDir != "" {
		if err := n.openPersist(reg, &opts); err != nil {
			return nil, err
		}
	}

	// One boot epoch qualifies every position this node advertises for its
	// own contribution stream — outbound pushes and the /peer/digest and
	// /peer/contrib self entries — so a sibling that learned our position
	// from a push and one that learned it from a digest agree.
	peerEpoch := topology.BootEpoch()
	if !relay {
		opts.Peer = &httpapi.PeerOptions{
			Origin: cfg.Name,
			Token:  cfg.PeerToken,
			Epoch:  peerEpoch,
			Export: n.srv.ExportState,
		}
		if n.mgr != nil {
			// Relay batches ride the same WAL as agent reports, so a crash
			// between accept and apply replays them instead of losing them.
			opts.Peer.Deliver = n.mgr.DeliverPeer
		}
	}
	if len(cfg.Peers) > 0 {
		var err error
		n.peering, err = topology.NewPeering(topology.PeeringOptions{
			Origin:         cfg.Name,
			Epoch:          peerEpoch,
			Peers:          cfg.Peers,
			Interval:       cfg.PeerSync,
			Token:          cfg.PeerToken,
			Export:         n.srv.ExportState,
			LocalVersion:   n.srv.LocalVersion,
			Changed:        n.srv.LocalChanged(),
			Logf:           cfg.Logf,
			DigestInterval: cfg.DigestSync,
			Local: func() []topology.DigestEntry {
				var out []topology.DigestEntry
				for _, c := range n.srv.PeerStatus().Contributions {
					out = append(out, topology.DigestEntry{Origin: c.Origin, Epoch: c.Epoch, Seq: c.Seq})
				}
				return out
			},
			Apply: func(u topology.PeerUpdate) (bool, error) {
				return n.srv.MergePeerState(u.Origin, u.Epoch, u.Seq, u.State)
			},
		})
		if err != nil {
			if n.mgr != nil {
				_ = n.mgr.Close() // Open is already failing with the error that matters
			}
			return nil, err
		}
		opts.Peer.Sync = n.peering.Status
	}

	// The heartbeat handle exists before the handler so its Status can be
	// wired into /healthz and /metrics; overload is filled in by the
	// handler constructor and lets each announcement carry the node's
	// live degrade state.
	var overload func() httpapi.OverloadStats
	opts.Overload = &overload
	if cfg.Registry != "" {
		n.hb = topology.NewHeartbeat(cfg.Registry,
			topology.Node{Name: cfg.Name, Role: cfg.Role, URL: cfg.Advertise},
			topology.HeartbeatOptions{
				TTL:      cfg.RegistryTTL,
				Logf:     cfg.Logf,
				Degraded: func() bool { return overload != nil && overload().Degraded },
			})
		opts.Board = n.hb.Status
	}

	// A relay hands the handler no server: that is what omits /server/*,
	// /peer/* and the model read-path sections from its surface.
	srv := n.srv
	if relay {
		srv = nil
	}
	n.http = &http.Server{
		Handler:           httpapi.NewNodeHandlerOpts(n.shuf, srv, opts),
		ReadHeaderTimeout: 5 * time.Second,
	}
	if n.peering != nil {
		// Last, once nothing in Open can fail any more: the loop only dials
		// out, so it need not wait for the listener.
		n.peering.Start()
		cfg.Logf("node: pushing state to %d peer(s) on change as origin %q (repair push every %v, digest round: %v)",
			len(cfg.Peers), cfg.Name, cfg.PeerSync, cfg.DigestSync)
	}
	return n, nil
}

// openPersist recovers the data directory into the freshly built server
// and shuffler and wires the manager into the handler options.
func (n *Node) openPersist(reg *metrics.Registry, opts *httpapi.NodeOptions) error {
	popts := n.cfg.Persist
	popts.Metrics = persist.NewMetrics(reg)
	if popts.Logf == nil {
		popts.Logf = n.cfg.Logf
	}
	if n.fwd != nil {
		// A durable relay persists its forwarding identity: recovery
		// restores the (epoch, seq) cursor before the replay can re-forward
		// a batch, so WAL-tail retransmits reuse the pre-crash epoch and
		// the analyzer's duplicate guard drops them.
		popts.Cursor = n.fwd
	}
	mgr, err := persist.Open(n.cfg.DataDir, n.shuf, n.srv, popts)
	if err != nil {
		return fmt.Errorf("node: recovering %s: %w", n.cfg.DataDir, err)
	}
	n.mgr = mgr
	if n.fwd != nil {
		// Every forwarded batch first syncs the WAL records behind it, so a
		// crash can never truncate records a downstream analyzer already
		// counted under this (epoch, seq).
		n.fwd.SetSync(mgr.SyncWAL)
		epoch, seq := n.fwd.Cursor()
		n.cfg.Logf("node: relay cursor epoch %d seq %d (restored: %v)", epoch, seq, mgr.Recovery().CursorRestored)
	}
	rec := mgr.Recovery()
	n.cfg.Logf("node: durable in %s (checkpoint seq %d, replayed %d records, wal at seq %d)",
		n.cfg.DataDir, rec.CheckpointSeq, rec.ReplayedRecords, rec.LastSeq)
	// WAL position gauges: sampled from the same Info() /healthz serves.
	reg.GaugeFunc("p2b_wal_seq", "",
		"Sequence number of the last WAL append.",
		func() float64 { return float64(mgr.Info().WALSeq) })
	reg.GaugeFunc("p2b_wal_checkpoint_seq", "",
		"WAL position of the last completed checkpoint.",
		func() float64 { return float64(mgr.Info().CheckpointSeq) })
	reg.GaugeFunc("p2b_wal_segments", "",
		"Live WAL segment files on disk.",
		func() float64 { return float64(mgr.Info().Segments) })
	opts.Ingest = mgr
	opts.Checkpoint = mgr.Checkpoint
	opts.Health = func() any { return mgr.Info() }
	return nil
}

// Handler returns the node's HTTP surface, for callers that bring their
// own listener (in-process fleets on httptest).
func (n *Node) Handler() http.Handler { return n.http.Handler }

// Server returns the node's analyzer server. On a relay it only backs
// checkpoints and never ingests.
func (n *Node) Server() *server.Server { return n.srv }

// Shuffler returns the node's shuffler.
func (n *Node) Shuffler() *shuffler.Shuffler { return n.shuf }

// Forwarder returns the relay's forwarder, nil on other roles.
func (n *Node) Forwarder() *topology.Forwarder { return n.fwd }

// Persist returns the durable node's persist manager, nil in memory.
// Closing it without Shutdown is how tests abandon a boot the way a
// kill -9 would: no final flush, no shutdown checkpoint.
func (n *Node) Persist() *persist.Manager { return n.mgr }

// Start launches the board heartbeat. Call it once the listener accepts:
// agents that discover this node must find it reachable. An unreachable
// board is retried on a jittered backoff inside the heartbeat.
func (n *Node) Start() {
	if n.hb != nil {
		n.hb.Start()
		n.cfg.Logf("node: announcing %q (%s) at %s on board %s", n.cfg.Name, n.cfg.Role, n.cfg.Advertise, n.cfg.Registry)
	}
}

// ListenAndServe binds addr, Starts the heartbeat and serves the
// handler until Shutdown, after which it returns http.ErrServerClosed.
func (n *Node) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	n.Start()
	return n.http.Serve(ln)
}

// Shutdown stops the node gracefully in the package doc's exit order;
// ctx bounds the HTTP drain. Every step runs even when an earlier one
// fails, and the errors are joined. Small flushed batches are the ones
// most exposed to thresholding; that is correct privacy behaviour, not
// data loss.
func (n *Node) Shutdown(ctx context.Context) error {
	if n.hb != nil {
		n.hb.Stop() // let the board entry expire; agents stop picking us
	}
	var errs []error
	// Drain first, so no report can slip into the shuffler after the final
	// flush below.
	if err := n.http.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("drain incomplete: %w", err))
	}
	if n.mgr != nil {
		// The flush is logged (replay must flush at the same position) and
		// checkpointed, so the next boot starts from this exact state.
		if err := n.mgr.Flush(); err != nil {
			errs = append(errs, fmt.Errorf("final flush: %w", err))
		}
		if err := n.mgr.Checkpoint(); err != nil {
			errs = append(errs, fmt.Errorf("final checkpoint: %w", err))
		}
		if err := n.mgr.Close(); err != nil {
			errs = append(errs, fmt.Errorf("closing wal: %w", err))
		}
	} else {
		n.shuf.Flush()
	}
	if n.peering != nil {
		n.peering.Sync()
		n.peering.Close()
	}
	return errors.Join(errs...)
}
