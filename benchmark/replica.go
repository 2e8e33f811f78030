package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"time"

	"p2b/internal/httpapi"
	"p2b/internal/metrics"
	"p2b/internal/persist"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/topology"
	"p2b/internal/transport"
)

// requestHeader carries the generator's request number into the traced
// replica, so every span of one request shares it.
const requestHeader = "X-Bench-Request"

// replicaNode is one in-process node assembled from the public
// constructors exactly as cmd/p2bnode/main.go assembles a process; the
// wiring-drift test holds the two to the same /healthz sections and
// /metrics families.
type replicaNode struct {
	node
	shuf    *shuffler.Shuffler
	mgr     *persist.Manager
	pm      *persist.Metrics
	peering *topology.Peering // built but never started: the driver calls Sync on a fixed schedule
	ts      *httptest.Server
}

// replica is the in-process copy of a workload's topology. With a tracer
// every public seam is wrapped in a timing decorator; without one the
// nodes are wired bare, which is the "decorators off" side of
// trace.overhead_share.
type replica struct {
	w     workload
	tr    *tracer
	nodes []*replicaNode
}

// buildReplica assembles w's topology under dir (one data directory per
// node). Unlike the real nodes, replica nodes run no timers: WAL syncs in
// interval mode, peer pushes and checkpoints happen only when the driver
// asks, so every count the traced run reports repeats exactly.
func buildReplica(w workload, dir string, tr *tracer) (*replica, error) {
	r := &replica{w: w, tr: tr}
	if !w.fleet {
		_, err := r.add(dir, httptest.NewUnstartedServer(nil), "node-1", topology.RoleCombined, "", nil)
		return r, err
	}
	// The listeners exist before any handler does, so every node can be
	// told its siblings' URLs at construction, as flags tell a process.
	var ts [4]*httptest.Server
	var urls [4]string
	for i := range ts {
		ts[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + ts[i].Listener.Addr().String()
	}
	specs := []struct {
		name       string
		role       topology.Role
		downstream string
		peers      []string
	}{
		{"analyzer-1", topology.RoleAnalyzer, "", []string{urls[1]}},
		{"analyzer-2", topology.RoleAnalyzer, "", []string{urls[0]}},
		{"relay-1", topology.RoleRelay, urls[0], nil},
		{"relay-2", topology.RoleRelay, urls[1], nil},
	}
	for i, s := range specs {
		if _, err := r.add(dir, ts[i], s.name, s.role, s.downstream, s.peers); err != nil {
			for _, t := range ts[i:] {
				t.Close()
			}
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// add wires one node behind ts and starts it. The body follows
// cmd/p2bnode/main.go section by section.
func (r *replica) add(dir string, ts *httptest.Server, name string, role topology.Role, downstream string, peers []string) (*replicaNode, error) {
	w := r.w
	srv := server.New(server.Config{K: w.k, Arms: w.arms, D: w.d, Alpha: 1, Seed: 1})

	var fwd *topology.Forwarder
	var sink shuffler.Sink = srv
	sinkSpan := "server.deliver"
	if role == topology.RoleRelay {
		var err error
		fwd, err = topology.NewForwarder(downstream, topology.ForwarderOptions{Origin: name, Token: peerToken})
		if err != nil {
			return nil, err
		}
		sink, sinkSpan = fwd, "topology.forward"
	}
	if r.tr != nil {
		sink = tracedSink{r.tr, sinkSpan, sink}
	}
	shuf := shuffler.New(shuffler.Config{BatchSize: shufflerBatch, Threshold: threshold}, sink, rng.New(1).Split("shuffler"))

	reg := metrics.NewRegistry()
	adm := httpapi.NewAdmission(httpapi.AdmissionConfig{
		MaxInFlight: 256, MaxInFlightBytes: 64 << 20, RetryAfter: time.Second, ReadTimeout: 30 * time.Second,
	})
	pm := persist.NewMetrics(reg)
	popts := persist.Options{Metrics: pm, Logf: func(string, ...any) {}}
	if w.walSync != "0" {
		// Non-zero keeps appends from syncing inline; the interval itself
		// never elapses — the driver calls SyncWAL on its own schedule.
		popts.SyncInterval = time.Hour
	}
	if fwd != nil {
		popts.Cursor = fwd
	}
	mgr, err := persist.Open(filepath.Join(dir, name), shuf, srv, popts)
	if err != nil {
		return nil, err
	}
	if fwd != nil {
		syncWAL := mgr.SyncWAL
		if r.tr != nil {
			syncWAL = func() error {
				id := r.tr.begin("persist.cursor_sync", -1)
				defer r.tr.end(id)
				return mgr.SyncWAL()
			}
		}
		fwd.SetSync(syncWAL)
	}
	reg.GaugeFunc("p2b_wal_seq", "", "Sequence number of the last WAL append.",
		func() float64 { return float64(mgr.Info().WALSeq) })
	reg.GaugeFunc("p2b_wal_checkpoint_seq", "", "WAL position of the last completed checkpoint.",
		func() float64 { return float64(mgr.Info().CheckpointSeq) })
	reg.GaugeFunc("p2b_wal_segments", "", "Live WAL segment files on disk.",
		func() float64 { return float64(mgr.Info().Segments) })

	peerEpoch := topology.BootEpoch()
	var peering *topology.Peering
	if len(peers) > 0 {
		peering, err = topology.NewPeering(topology.PeeringOptions{
			Origin:         name,
			Epoch:          peerEpoch,
			Peers:          peers,
			Interval:       peerSync,
			Token:          peerToken,
			Export:         srv.ExportState,
			LocalVersion:   srv.LocalVersion,
			DigestInterval: digestSync,
			Local: func() []topology.DigestEntry {
				var out []topology.DigestEntry
				for _, c := range srv.PeerStatus().Contributions {
					out = append(out, topology.DigestEntry{Origin: c.Origin, Epoch: c.Epoch, Seq: c.Seq})
				}
				return out
			},
			Apply: func(u topology.PeerUpdate) (bool, error) {
				return srv.MergePeerState(u.Origin, u.Epoch, u.Seq, u.State)
			},
		})
		if err != nil {
			mgr.Close()
			return nil, err
		}
	}

	var ingest httpapi.Ingestor = mgr
	if r.tr != nil {
		ingest = tracedIngestor{r.tr, mgr}
	}
	var handler http.Handler
	if role == topology.RoleRelay {
		handler = httpapi.NewRelayHandler(shuf, fwd, httpapi.RelayOptions{
			Admission:  adm,
			Metrics:    reg,
			Shapes:     httpapi.ModelShapes{K: w.k, Arms: w.arms, D: w.d},
			Ingest:     ingest,
			Checkpoint: mgr.Checkpoint,
			Health:     func() any { return persistHealth(mgr) },
		})
	} else {
		opts := httpapi.NodeOptions{
			Metrics:   reg,
			Admission: adm,
			Role:      string(role),
			Peer: &httpapi.PeerOptions{
				Origin:  name,
				Token:   peerToken,
				Epoch:   peerEpoch,
				Export:  srv.ExportState,
				Deliver: mgr.DeliverPeer,
			},
			Ingest:     ingest,
			Checkpoint: mgr.Checkpoint,
			Health:     func() any { return persistHealth(mgr) },
		}
		if peering != nil {
			opts.Peer.Sync = peering.Status
		}
		handler = httpapi.NewNodeHandlerOpts(shuf, srv, opts)
	}
	if r.tr != nil {
		handler = tracedRoutes(r.tr, handler)
	}
	ts.Config.Handler = handler
	ts.Start()
	n := &replicaNode{
		node: node{name: name, role: string(role), url: ts.URL},
		shuf: shuf, mgr: mgr, pm: pm, peering: peering, ts: ts,
	}
	r.nodes = append(r.nodes, n)
	return n, nil
}

// persistHealth is the "persist" section of /healthz: the same Info() the
// p2b_wal_* gauges above sample, serialized here rather than inside
// httpapi so p2bvet's no-drift rule can see that the two views agree.
func persistHealth(mgr *persist.Manager) json.RawMessage {
	blob, err := json.Marshal(mgr.Info())
	if err != nil {
		return json.RawMessage(`null`)
	}
	return blob
}

// asNodes presents the replica's nodes of the given roles to the generator
// and the checkers, which only ever need a name, a role and a URL.
func (r *replica) asNodes(roles ...string) []*node {
	var out []*node
	for _, n := range r.nodes {
		for _, role := range roles {
			if n.role == role {
				out = append(out, &n.node)
			}
		}
	}
	return out
}

// background does, on the driver's fixed schedule, what a process does on
// timers: sync the interval-mode WALs and push analyzer state to peers.
func (r *replica) background(syncWAL, syncPeers bool) error {
	for _, n := range r.nodes {
		if syncWAL && r.w.walSync != "0" {
			if err := n.mgr.SyncWAL(); err != nil {
				return err
			}
		}
		if syncPeers && n.peering != nil {
			n.peering.Sync()
		}
	}
	return nil
}

func (r *replica) close() {
	for _, n := range r.nodes {
		n.ts.Close()
		_ = n.mgr.Close() // the data directory is about to be removed
	}
}

// tracedSink times the shuffler's sink: shard Deliver on a combined node,
// the forwarder's downstream round trip on a relay.
type tracedSink struct {
	tr    *tracer
	name  string
	inner shuffler.Sink
}

func (s tracedSink) Deliver(batch []transport.Tuple) {
	id := s.tr.begin(s.name, -1)
	s.inner.Deliver(batch)
	s.tr.end(id)
}

// tracedIngestor times report admission behind the batch route: WAL append
// plus the shuffler call, which contains any cut and delivery.
type tracedIngestor struct {
	tr    *tracer
	inner httpapi.Ingestor
}

func (t tracedIngestor) SubmitEnvelope(e transport.Envelope) error {
	id := t.tr.begin("persist.submit", -1)
	defer t.tr.end(id)
	return t.inner.SubmitEnvelope(e)
}

func (t tracedIngestor) SubmitTuples(tuples []transport.Tuple) error {
	id := t.tr.begin("persist.submit", -1)
	defer t.tr.end(id)
	return t.inner.SubmitTuples(tuples)
}

func (t tracedIngestor) Flush() error { return t.inner.Flush() }

// tracedRoutes opens one span per request on the three routes the
// benchmark's traffic uses; every other route passes through untimed.
func tracedRoutes(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := ""
		switch r.Method + " " + r.URL.Path {
		case "POST /shuffler/reports":
			name = "httpapi.reports"
		case "GET /server/model":
			name = "httpapi.model"
		case "POST /peer/ingest":
			name = "httpapi.peer_ingest"
		default:
			h.ServeHTTP(w, r)
			return
		}
		req := -1
		if v := r.Header.Get(requestHeader); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				req = n
			}
		}
		id := tr.begin(name, req)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}
