package node

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"p2b/internal/httpapi"
	"p2b/internal/metrics"
	"p2b/internal/persist"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/topology"
	"p2b/internal/transport"
)

const deadURL = "http://127.0.0.1:1"

// testConfig is a small node of the given role; durable when dir is set.
func testConfig(role topology.Role, name, dir string) Config {
	return Config{
		Role:      role,
		Name:      name,
		Server:    server.Config{K: 8, Arms: 3, D: 2, Alpha: 1, Seed: 1, Shards: 1},
		Shuffler:  shuffler.Config{BatchSize: 4, Threshold: 0},
		Admission: httpapi.AdmissionConfig{MaxInFlight: 256, MaxInFlightBytes: 64 << 20},
		DataDir:   dir,
		Persist:   persist.Options{SyncInterval: time.Hour}, // no inline or timed fsyncs: the tests count them
	}
}

func open(t *testing.T, cfg Config) (*Node, *httptest.Server) {
	t.Helper()
	cfg.Logf = t.Logf
	n, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.Handler())
	t.Cleanup(ts.Close)
	return n, ts
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes()
}

// topLevelKeys returns a JSON object's keys in document order.
func topLevelKeys(t *testing.T, doc []byte) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", doc)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return strings.Join(keys, ",")
}

// report posts count single-tuple reports of reward 1 to the node's
// per-envelope route.
func report(t *testing.T, url string, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		body := fmt.Sprintf(`{"tuple":{"code":%d,"action":%d,"reward":1}}`, i%8, i%3)
		resp, err := http.Post(url+"/shuffler/report", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("report %d: status %d", i, resp.StatusCode)
		}
	}
}

// fsyncs reads the WAL fsync count off the node's own /metrics.
func fsyncs(t *testing.T, url string) int {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(get(t, url+"/metrics")))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "p2b_wal_fsync_seconds_count "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("no p2b_wal_fsync_seconds_count on /metrics")
	return 0
}

// Every role, durable and in memory, must serve exactly the /healthz
// sections (in order) and /metrics families the parent commit's p2bnode
// served before the two hand-written assemblies collapsed into Open: the
// goldens under testdata/surface were captured from that binary.
func TestOpenServesTheSameSurfacePerRole(t *testing.T) {
	for _, tc := range []struct {
		golden string
		cfg    func(dir string) Config
	}{
		{"combined_mem", func(string) Config { return testConfig(topology.RoleCombined, "c1", "") }},
		{"combined_dur", func(dir string) Config { return testConfig(topology.RoleCombined, "c1", dir) }},
		{"analyzer_mem", func(string) Config { return testConfig(topology.RoleAnalyzer, "a1", "") }},
		{"analyzer_dur", func(dir string) Config { return testConfig(topology.RoleAnalyzer, "a1", dir) }},
		{"analyzer_peers", func(string) Config {
			cfg := testConfig(topology.RoleAnalyzer, "a1", "")
			cfg.Peers, cfg.PeerSync = []string{deadURL}, time.Hour
			return cfg
		}},
		{"relay_mem", func(string) Config {
			cfg := testConfig(topology.RoleRelay, "r1", "")
			cfg.Downstream = deadURL
			return cfg
		}},
		{"relay_dur", func(dir string) Config {
			cfg := testConfig(topology.RoleRelay, "r1", dir)
			cfg.Downstream = deadURL
			return cfg
		}},
		{"relay_board", func(string) Config {
			cfg := testConfig(topology.RoleRelay, "r1", "")
			cfg.Downstream, cfg.Registry, cfg.Advertise = deadURL, deadURL, "http://r1"
			return cfg
		}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			blob, err := os.ReadFile(filepath.Join("testdata", "surface", tc.golden+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			wantKeys, wantFamilies, _ := strings.Cut(strings.TrimSpace(string(blob)), "\n")

			n, ts := open(t, tc.cfg(t.TempDir()))
			defer func() {
				if err := n.Shutdown(context.Background()); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}()
			n.Start()
			if got := topLevelKeys(t, get(t, ts.URL+"/healthz")); got != wantKeys {
				t.Errorf("/healthz sections:\n got %s\nwant %s", got, wantKeys)
			}
			families, err := metrics.CheckExposition(bytes.NewReader(get(t, ts.URL+"/metrics")))
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for f := range families {
				got = append(got, f)
			}
			sort.Strings(got)
			if strings.Join(got, "\n") != wantFamilies {
				t.Errorf("/metrics families:\n got %v\nwant %v", got, strings.Fields(wantFamilies))
			}
		})
	}
}

// ListenAndServe is the whole serve path of cmd/p2bnode: bind, announce,
// serve until Shutdown drains, then report http.ErrServerClosed.
func TestListenAndServeUntilShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cfg := testConfig(topology.RoleCombined, "c1", "")
	cfg.Logf = t.Logf
	n, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- n.ListenAndServe(addr) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node never answered on %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := n.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("ListenAndServe returned %v, want http.ErrServerClosed", err)
	}
}

func TestOpenRefusesInconsistentRoles(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"unknown role":             func(c *Config) { c.Role = "shard" },
		"no name":                  func(c *Config) { c.Name = "" },
		"relay without downstream": func(c *Config) { c.Role = topology.RoleRelay },
		"analyzer with downstream": func(c *Config) { c.Role, c.Downstream = topology.RoleAnalyzer, deadURL },
		"relay with peers": func(c *Config) {
			c.Role, c.Downstream, c.Peers = topology.RoleRelay, deadURL, []string{deadURL}
		},
	} {
		cfg := testConfig("", "n1", "")
		mutate(&cfg)
		if n, err := Open(cfg); err == nil {
			_ = n.Shutdown(context.Background())
			t.Errorf("%s: Open accepted the config", name)
		}
	}
}

// A durable relay built by Open owns the two wirings every hand-built
// fleet used to re-type: the forwarding cursor is restored before the WAL
// tail re-forwards, and every forwarded batch first syncs the WAL records
// behind it — on the first boot and after a crash-reopen alike.
func TestDurableRelayRestoresCursorAndSyncsBeforeForwarding(t *testing.T) {
	analyzer, analyzerTS := open(t, testConfig(topology.RoleAnalyzer, "a1", ""))
	dir := t.TempDir()
	relayCfg := testConfig(topology.RoleRelay, "r1", dir)
	relayCfg.Downstream = analyzerTS.URL

	boot1, ts1 := open(t, relayCfg)
	before := fsyncs(t, ts1.URL)
	report(t, ts1.URL, 8) // two full batches: cut, synced, forwarded
	if st := boot1.Forwarder().Stats(); st.Batches != 2 || st.Dropped != 0 {
		t.Fatalf("boot 1 forward stats = %+v, want 2 delivered batches", st)
	}
	if after := fsyncs(t, ts1.URL); after < before+2 {
		t.Fatalf("boot 1: %d WAL fsyncs across 2 forwarded batches (was %d): the pre-send sync hook is not wired", after, before)
	}
	epoch1, seq1 := boot1.Forwarder().Cursor()
	// kill -9: no flush, no checkpoint.
	ts1.Close()
	if err := boot1.Persist().Close(); err != nil {
		t.Fatal(err)
	}

	boot2, ts2 := open(t, relayCfg)
	if !boot2.Persist().Recovery().CursorRestored {
		t.Fatal("boot 2 minted a fresh epoch instead of restoring the persisted cursor")
	}
	if epoch2, seq2 := boot2.Forwarder().Cursor(); epoch2 != epoch1 || seq2 != seq1 {
		t.Fatalf("boot 2 cursor = (%d, %d), want the persisted (%d, %d)", epoch2, seq2, epoch1, seq1)
	}
	// The WAL tail re-forwarded under the restored cursor, so the analyzer
	// saw duplicates, not new batches.
	if _, _, applied, dups := analyzer.Server().PeerCounters(); applied != 2 || dups != 2 {
		t.Fatalf("analyzer applied %d batches and dropped %d duplicates, want 2 and 2", applied, dups)
	}
	before = fsyncs(t, ts2.URL)
	report(t, ts2.URL, 4)
	if after := fsyncs(t, ts2.URL); after <= before {
		t.Fatalf("boot 2: no WAL fsync before forwarding (count stayed %d): the sync hook did not survive the reopen", before)
	}
	if _, _, applied, _ := analyzer.Server().PeerCounters(); applied != 3 {
		t.Fatalf("analyzer applied %d batches after the reopen, want 3", applied)
	}
	if err := boot2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// Shutdown's flush → checkpoint → close order leaves a data directory the
// next boot recovers from the checkpoint alone: zero records to replay,
// and the sub-batch that was pending at shutdown already in the model.
func TestShutdownLeavesACheckpointThatReplaysNothing(t *testing.T) {
	cfg := testConfig(topology.RoleCombined, "c1", t.TempDir())
	boot1, ts1 := open(t, cfg)
	report(t, ts1.URL, 6) // one full batch plus two pending tuples
	ts1.Close()
	if err := boot1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := boot1.Server().Stats().TuplesIngested; got != 6 {
		t.Fatalf("shutdown flushed %d tuples into the server, want all 6", got)
	}

	boot2, _ := open(t, cfg)
	rec := boot2.Persist().Recovery()
	if rec.CheckpointSeq == 0 || rec.ReplayedRecords != 0 {
		t.Fatalf("recovery after a clean shutdown = %+v, want a checkpoint and zero replayed records", rec)
	}
	if got := boot2.Server().Stats().TuplesIngested; got != 6 {
		t.Fatalf("reopened node holds %d tuples, want 6", got)
	}
	if err := boot2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// openPeered opens two in-memory analyzers that push to each other with
// both timers parked — PeerSync an hour, no digest round — so state can
// only cross when a local change triggers a push. mergeDelay slows b's
// /peer/merge, which is what stretches a's hold-off past the floor.
func openPeered(t *testing.T, mergeDelay time.Duration) (a, b *Node, aURL, bURL string) {
	t.Helper()
	tsA, tsB := httptest.NewUnstartedServer(nil), httptest.NewUnstartedServer(nil)
	aURL, bURL = "http://"+tsA.Listener.Addr().String(), "http://"+tsB.Listener.Addr().String()
	boot := func(name, peer string, ts *httptest.Server, delay time.Duration) *Node {
		cfg := testConfig(topology.RoleAnalyzer, name, "")
		cfg.Peers, cfg.PeerSync, cfg.DigestSync, cfg.Logf = []string{peer}, time.Hour, 0, t.Logf
		n, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := n.Handler()
		ts.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/peer/merge" {
				time.Sleep(delay)
			}
			h.ServeHTTP(w, r)
		})
		ts.Start()
		t.Cleanup(ts.Close)
		return n
	}
	a, b = boot("a1", bURL, tsA, 0), boot("b1", aURL, tsB, mergeDelay)
	t.Cleanup(func() {
		_ = a.Shutdown(context.Background())
		_ = b.Shutdown(context.Background())
	})
	return a, b, aURL, bURL
}

func batchOf(code int) []transport.Tuple {
	return []transport.Tuple{{Code: code % 8, Action: code % 3, Reward: 1}}
}

// await polls cond for up to limit: the only timers that could move state
// are parked an hour out, so whatever satisfies it was change-triggered.
func await(t *testing.T, limit time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(limit); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("after %v: %s", limit, what)
		}
		time.Sleep(time.Millisecond)
	}
}

// contribution is what holder has stored for origin, as comparable JSON.
func contribution(t *testing.T, holder *Node, origin string) string {
	t.Helper()
	_, state, ok := holder.Server().PeerContribution(origin)
	if !ok {
		return ""
	}
	return exportJSON(t, state)
}

// localExport is what n's next push would carry: its local state without
// the relay guards, which the peer encoding never carries, as comparable
// JSON.
func localExport(t *testing.T, n *Node) string {
	t.Helper()
	ps := n.Server().ExportState()
	ps.Relays = nil
	return exportJSON(t, ps)
}

// awaitMerges waits until holder has applied n peer pushes.
func awaitMerges(t *testing.T, holder *Node, n int64) {
	t.Helper()
	await(t, 2*time.Second, fmt.Sprintf("push %d never landed", n), func() bool {
		applied, _, _, _ := holder.Server().PeerCounters()
		return applied == n
	})
}

func exportJSON(t *testing.T, ps *server.PersistedState) string {
	t.Helper()
	blob, err := json.Marshal(ps)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// One batch delivered at an analyzer is served by its sibling's model
// route within a second, with no push or digest timer able to fire.
func TestLocalChangeReachesThePeerWithoutATimer(t *testing.T) {
	a, _, aURL, bURL := openPeered(t, 0)
	empty := string(get(t, bURL+"/server/model?kind=tabular"))
	a.Server().Deliver(batchOf(1))
	want := string(get(t, aURL+"/server/model?kind=tabular"))
	if want == empty {
		t.Fatal("the delivery did not change a1's own model")
	}
	await(t, time.Second, "b1 still serves the model without a1's batch", func() bool {
		return string(get(t, bURL+"/server/model?kind=tabular")) == want
	})
	var st struct {
		Peers struct {
			Sync []topology.SyncStatus `json:"sync"`
		} `json:"peers"`
	}
	if err := json.Unmarshal(get(t, aURL+"/healthz"), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Peers.Sync) != 1 || st.Peers.Sync[0].Triggered == 0 || st.Peers.Sync[0].LastRoundMs <= 0 {
		t.Errorf("a1 /healthz peers.sync = %+v, want a triggered round with its time", st.Peers.Sync)
	}
}

// No lost wake-up: a burst that lands inside a hold-off coalesces into
// exactly one trailing round, and that round carries the final state.
func TestBurstDuringAHoldoffCoalescesIntoOneTrailingPush(t *testing.T) {
	a, b, _, _ := openPeered(t, 20*time.Millisecond) // a 20ms round earns a 380ms hold-off
	a.Server().Deliver(batchOf(0))
	awaitMerges(t, b, 1) // the leading push
	for i := 1; i <= 100; i++ {
		a.Server().Deliver(batchOf(i))
	}
	want := localExport(t, a)
	await(t, 2*time.Second, "b1 never received a1's final state", func() bool {
		return contribution(t, b, "a1") == want
	})
	// Silence: nothing further is owed, so nothing further is sent.
	time.Sleep(50 * time.Millisecond)
	if applied, rejected, _, _ := b.Server().PeerCounters(); applied != 2 || rejected != 0 {
		t.Errorf("b1 merged %d pushes and rejected %d, want the leading and one trailing push", applied, rejected)
	}
	if st := a.peering.Status()[0]; st.Triggered != 2 || st.Pushes != 2 {
		t.Errorf("a1 sync status = %+v, want 2 triggered rounds and 2 pushes", st)
	}
}

// Shutdown does not wait out a pending hold-off, and its final push
// still hands the peer everything local.
func TestShutdownDuringAHoldoffStillPushesTheFinalState(t *testing.T) {
	a, b, _, _ := openPeered(t, 50*time.Millisecond) // a 50ms round earns a 950ms hold-off
	a.Server().Deliver(batchOf(0))
	awaitMerges(t, b, 1)           // the leading push
	a.Server().Deliver(batchOf(1)) // owed a trailing round ~950ms from now
	want := localExport(t, a)
	start := time.Now()
	if err := a.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 600*time.Millisecond {
		t.Errorf("Shutdown took %v: it waited for the hold-off", took)
	}
	if got := contribution(t, b, "a1"); got != want {
		t.Errorf("b1 holds\n %s\nafter a1's shutdown, want its final state\n %s", got, want)
	}
}
