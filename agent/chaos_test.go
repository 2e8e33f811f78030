package agent

// The chaos acceptance test: a deterministic device fleet driven through
// the chaos proxy against a durable node with a WAL fsync fault armed
// must converge to a model BIT-IDENTICAL to the same fleet against a
// clean node — with zero dropped reports and zero leaked goroutines.
//
// Why this can be exact: the fault placement is idempotency-aware
// (resets/503s strictly pre-forward, truncation GET-only), the transport
// runs one in-flight sender so retried batches still arrive in cut order,
// the node ingests with a single shard, and every random stream involved
// is seeded. Faults may change WHEN things happen, never WHAT arrives.

import (
	"context"
	"net/http"
	"net/url"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"p2b/internal/faultinject"
	"p2b/internal/httpapi"
	"p2b/internal/node"
	"p2b/internal/persist"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/topology"
	"p2b/internal/transport"

	"net/http/httptest"
	"net/http/httputil"
)

const (
	chaosUsers = 60
	chaosSteps = 8
)

// chaosNode is one boot of a node assembled exactly as p2bnode assembles
// it, served on httptest.
type chaosNode struct {
	*node.Node
	ts *httptest.Server
}

// bootChaosNode opens a single-shard node with per-append fsync (every
// acked report survives a kill) when dir is set, in memory otherwise.
func bootChaosNode(t *testing.T, cfg node.Config, dir string, seed uint64) *chaosNode {
	t.Helper()
	cfg.Server = server.Config{K: httpK, Arms: httpArms, D: httpDim, Alpha: 1, Seed: seed, Shards: 1}
	cfg.Shuffler.BatchSize = 8
	cfg.DataDir = dir
	cfg.Persist = persist.Options{SyncInterval: 0}
	cfg.Logf = t.Logf
	n, err := node.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &chaosNode{Node: n, ts: httptest.NewServer(n.Handler())}
}

func newChaosNode(t *testing.T, dir string) *chaosNode {
	t.Helper()
	return bootChaosNode(t, node.Config{Name: "node-1", Shuffler: shuffler.Config{Threshold: 2}}, dir, 5)
}

func (n *chaosNode) close(t *testing.T) {
	t.Helper()
	n.ts.Close()
	if err := n.Shutdown(context.Background()); err != nil {
		t.Errorf("shutting the node down: %v", err)
	}
}

// crash abandons the boot the way a kill -9 would: the listener stops
// (in-flight requests drain, so "acked" keeps meaning "durable"), and the
// WAL is closed with no final flush and no shutdown checkpoint.
func (n *chaosNode) crash(t *testing.T) {
	t.Helper()
	n.ts.Close()
	if err := n.Persist().Close(); err != nil {
		t.Fatal(err)
	}
}

// runChaosFleet drives the deterministic fleet against url (directly or
// through a chaos proxy) and returns how many tuples it disclosed. Every
// seed is fixed, the warm-start model is fetched exactly once (before any
// ingestion, so both runs start from the identical version-1 model), and
// delivery runs a single in-flight sender with a deep retry budget.
func runChaosFleet(t *testing.T, url string) int {
	t.Helper()
	src := NewHTTPSource(url, HTTPSourceOptions{Seed: 9})
	defer src.Close()
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		if err = src.Refresh(ModelTabular); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("warm-start fetch never survived the chaos: %v", err)
	}

	tr := NewHTTPTransport(url, HTTPTransportOptions{
		MaxBatch:      8,
		MaxAge:        time.Hour, // only deterministic size-triggered cuts
		MaxInFlight:   1,         // retried batches still arrive in cut order
		MaxRetries:    10,
		RetryBase:     time.Millisecond,
		MaxRetryDelay: 10 * time.Millisecond, // collapse the proxy's 1s Retry-After hints
		Seed:          9,
	})

	root := rng.New(42)
	submitted := 0
	for u := 0; u < chaosUsers; u++ {
		ag, err := New(Config{
			Policy:       PolicyTabular,
			P:            0.9, // one disclosure chance per interaction: enough
			ReportWindow: 1,   // traffic for the proxy's fault stream to bite
			Encoder:      codeEncoder{httpK},
			Source:       src,
			Transport:    tr,
			Rand:         root.SplitIndex("user", u),
		})
		if err != nil {
			t.Fatalf("user %d: %v", u, err)
		}
		for step := 0; step < chaosSteps; step++ {
			x := []float64{float64((u*7+step*3)%100) / 100, 0, 0, 0}
			a := ag.Select(x)
			// Real-valued rewards make the accumulators order-sensitive in
			// their low bits — exactly what the bit-exactness claim is about.
			ag.Observe(a, 0.25*float64((u+a+step)%5))
		}
		n, err := ag.Finish()
		if err != nil {
			t.Fatalf("user %d finish: %v", u, err)
		}
		submitted += n
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("settling batches: %v (a dropped batch breaks the zero-loss claim)", err)
	}
	if st := tr.Stats(); st.DroppedBatches != 0 || st.DroppedReports != 0 {
		t.Fatalf("transport dropped work: %+v", st)
	}
	return submitted
}

// flushAndFetch pushes reportNode's pending privacy batch through and reads
// the tabular model modelNode serves afterwards.
func flushAndFetch(t *testing.T, reportNode, modelNode string) Model {
	t.Helper()
	tr := NewHTTPTransport(reportNode, HTTPTransportOptions{})
	defer tr.Close()
	if err := tr.FlushNode(); err != nil {
		t.Fatal(err)
	}
	m, err := NewHTTPSource(modelNode, HTTPSourceOptions{}).Model(ModelTabular)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestChaosRunConvergesBitExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e in -short mode")
	}
	goroutinesBefore := runtime.NumGoroutine()

	// Referee run: same fleet, clean network, healthy disk.
	clean := newChaosNode(t, filepath.Join(t.TempDir(), "clean"))
	cleanSubmitted := runChaosFleet(t, clean.ts.URL)
	cleanModel := flushAndFetch(t, clean.ts.URL, clean.ts.URL)
	cleanShuf := clean.Shuffler().Stats()
	clean.close(t)

	// Chaos run: WAL fsync fault armed, all traffic through the proxy.
	reg := faultinject.NewRegistry(7)
	reg.Enable(faultinject.FPWALSync, faultinject.Spec{Count: 1})
	chaos := newChaosNode(t, filepath.Join(t.TempDir(), "chaos"))
	persist.SetFSHooks(&persist.FSHooks{
		BeforeWrite:    reg.FSWrite,
		BeforeSync:     reg.FSSync,
		BeforeTruncate: reg.FSTruncate,
	})
	defer persist.SetFSHooks(nil)

	proxy, err := faultinject.NewProxy(faultinject.ProxyConfig{
		Upstream:     chaos.ts.URL,
		Seed:         13,
		LatencyProb:  0.2,
		Latency:      4 * time.Millisecond,
		ResetProb:    0.1,
		ErrorProb:    0.08,
		ErrorBurst:   2,
		TruncateProb: 0.5, // hits the warm-start model GETs
	})
	if err != nil {
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(proxy)

	chaosSubmitted := runChaosFleet(t, proxyTS.URL)
	persist.SetFSHooks(nil)
	// End-of-run control plane goes direct: the flush and the model read
	// are the experiment's measurement, not its subject.
	chaosModel := flushAndFetch(t, chaos.ts.URL, chaos.ts.URL)
	chaosShuf := chaos.Shuffler().Stats()
	proxyStats := proxy.Stats()
	proxyTS.Close()
	chaos.close(t)

	// The chaos must have actually happened.
	if proxyStats.Resets == 0 || proxyStats.Errors == 0 || proxyStats.Delayed == 0 {
		t.Fatalf("proxy injected too little: %+v", proxyStats)
	}
	if reg.Fired(faultinject.FPWALSync) != 1 {
		t.Fatalf("WAL fsync failpoint fired %d times, want 1", reg.Fired(faultinject.FPWALSync))
	}

	// Zero dropped reports: the same disclosures were made and every one
	// reached the shuffler.
	if chaosSubmitted != cleanSubmitted {
		t.Fatalf("chaos fleet disclosed %d tuples, clean fleet %d — the fleets diverged", chaosSubmitted, cleanSubmitted)
	}
	if chaosShuf.Received != cleanShuf.Received || int(chaosShuf.Received) != cleanSubmitted {
		t.Fatalf("shuffler received %d under chaos vs %d clean (fleet disclosed %d)",
			chaosShuf.Received, cleanShuf.Received, cleanSubmitted)
	}
	if chaosShuf != cleanShuf {
		t.Fatalf("shuffler stats diverged:\n  chaos: %+v\n  clean: %+v", chaosShuf, cleanShuf)
	}

	// The headline: bit-identical converged models, version and all.
	if !reflect.DeepEqual(chaosModel.Tabular, cleanModel.Tabular) {
		for i := range cleanModel.Tabular.Count {
			if chaosModel.Tabular.Count[i] != cleanModel.Tabular.Count[i] || chaosModel.Tabular.Sum[i] != cleanModel.Tabular.Sum[i] {
				t.Logf("cell %d (code %d, action %d): chaos count=%v sum=%v, clean count=%v sum=%v",
					i, i/httpArms, i%httpArms,
					chaosModel.Tabular.Count[i], chaosModel.Tabular.Sum[i],
					cleanModel.Tabular.Count[i], cleanModel.Tabular.Sum[i])
			}
		}
		t.Fatal("converged models are not bit-identical")
	}
	// The ETag is deliberately NOT compared: it embeds each server's boot
	// epoch, which differs between any two node instances by design.
	if chaosModel.Version != cleanModel.Version {
		t.Fatalf("model version diverged: chaos %d vs clean %d", chaosModel.Version, cleanModel.Version)
	}

	// Zero leaked goroutines: everything the run spawned has exited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutinesBefore {
		t.Fatalf("%d goroutines after the chaos run, %d before — leak", got, goroutinesBefore)
	}
}

// bootChaosRelay is one boot of a durable relay forwarding to downstream.
// Threshold 0: every logged tuple must come out the other end, so the
// zero-dropped assertion is about the crash, not about privacy culls.
func bootChaosRelay(t *testing.T, dir, downstream string, seed uint64) *chaosNode {
	t.Helper()
	return bootChaosNode(t, node.Config{
		Role:       topology.RoleRelay,
		Name:       "relay-1",
		Downstream: downstream,
	}, dir, seed)
}

// The relay-restart chaos scenario: a fleet reporting through a durable
// relay whose process dies and restarts mid-stream must lose nothing and
// double-count nothing — in-flight sends ride the transport's retry
// ladder across the outage, the restarted relay resumes its persisted
// (epoch, seq) cursor, and its WAL-tail re-forwards are absorbed by the
// analyzer's duplicate guard.
func TestChaosRelayRestartLosesNothing(t *testing.T) {
	analyzer := bootChaosNode(t, node.Config{Role: topology.RoleAnalyzer, Name: "analyzer-1"}, "", 6)
	defer analyzer.close(t)

	// The fleet needs one stable URL across the relay restart (a real
	// deployment keeps its address; httptest cannot rebind a port), so a
	// switchable reverse proxy fronts whichever boot is current.
	dir := filepath.Join(t.TempDir(), "relay")
	boot1 := bootChaosRelay(t, dir, analyzer.ts.URL, 30)
	var backend atomic.Value
	backend.Store(boot1.ts.URL)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		u, err := url.Parse(backend.Load().(string))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		httputil.NewSingleHostReverseProxy(u).ServeHTTP(w, r)
	}))
	defer front.Close()

	// One in-flight sender with a deep, fast retry ladder: sends that land
	// in the outage window must survive it, in order.
	tr := NewHTTPTransport(front.URL, HTTPTransportOptions{
		MaxBatch:      4,
		MaxAge:        time.Hour,
		MaxInFlight:   1,
		MaxRetries:    100,
		RetryBase:     time.Millisecond,
		MaxRetryDelay: 10 * time.Millisecond,
		Seed:          9,
	})

	const phase = 100 // reports per phase; 2*phase total, reward 1 each
	report := func(from int) {
		for i := from; i < from+phase; i++ {
			if err := tr.Report(Envelope{Tuple: transport.Tuple{Code: i % httpK, Action: i % httpArms, Reward: 1}}); err != nil {
				t.Errorf("report %d: %v", i, err)
				return
			}
		}
	}

	// Phase 1 settles before the crash (Flush drains the client batches),
	// so the WAL-tail replay below re-forwards a known-nonzero prefix.
	report(0)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	boot1.crash(t)

	// The restart races phase 2: the first sends hit the dead backend and
	// retry, then the revived relay absorbs the rest.
	restarted := make(chan *chaosNode, 1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		boot2 := bootChaosRelay(t, dir, analyzer.ts.URL, 31)
		backend.Store(boot2.ts.URL)
		restarted <- boot2
	}()
	report(phase)
	if err := tr.Close(); err != nil {
		t.Fatalf("settling batches across the restart: %v (a dropped batch breaks the zero-loss claim)", err)
	}
	boot2 := <-restarted
	defer boot2.crash(t)
	if st := tr.Stats(); st.DroppedBatches != 0 || st.DroppedReports != 0 {
		t.Fatalf("transport dropped work across the restart: %+v", st)
	}
	// Push any pending sub-batch through so every report reaches the
	// analyzer before the accounting below. Zero dropped, zero
	// double-counted: with every reward exactly 1, the analyzer's total
	// tabular count IS the delivered-report count.
	model := flushAndFetch(t, boot2.ts.URL, analyzer.ts.URL)
	var total float64
	for _, c := range model.Tabular.Count {
		total += c
	}
	if total != 2*phase {
		t.Fatalf("analyzer folded %v reports, want exactly %d (less = dropped, more = double-counted)", total, 2*phase)
	}

	// Non-vacuity: the restart really retransmitted (the duplicate guard
	// absorbed the WAL-tail re-forward) and the cursor really was restored.
	if !boot2.Persist().Recovery().CursorRestored {
		t.Fatal("restarted relay minted a fresh epoch instead of restoring its cursor")
	}
	if _, _, _, dups := analyzer.Server().PeerCounters(); dups == 0 {
		t.Fatal("analyzer saw no duplicate batches — the crash-replay path went untested")
	}
}

// A tuple-level sanity check on the same machinery: reports shipped
// through a resetting proxy are never double-ingested (resets happen
// before forwarding, so a retry is the FIRST delivery).
func TestChaosProxyRetriesDoNotDoubleIngest(t *testing.T) {
	srv := server.New(server.Config{K: httpK, Arms: httpArms, D: httpDim, Alpha: 1, Seed: 1, Shards: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 64, Threshold: 0}, srv, rng.New(5))
	node := httptest.NewServer(httpapi.NewNodeHandler(shuf, srv))
	defer node.Close()
	proxy, err := faultinject.NewProxy(faultinject.ProxyConfig{
		Upstream:  node.URL,
		Seed:      3,
		ResetProb: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(proxy)
	defer proxyTS.Close()

	tr := NewHTTPTransport(proxyTS.URL, HTTPTransportOptions{
		MaxBatch: 4, MaxAge: time.Hour, MaxInFlight: 1,
		MaxRetries: 20, RetryBase: time.Millisecond,
	})
	const reports = 40
	for i := 0; i < reports; i++ {
		if err := tr.Report(Envelope{Tuple: transport.Tuple{Code: i % httpK, Action: i % httpArms, Reward: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := shuf.Stats().Received; got != reports {
		t.Fatalf("shuffler received %d tuples, want exactly %d (no loss, no duplication)", got, reports)
	}
	if st := proxy.Stats(); st.Resets == 0 {
		t.Fatalf("proxy injected no resets: %+v", st)
	}
}
