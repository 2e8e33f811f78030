package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"p2b/internal/metrics"
)

// surface is what the wiring-drift test compares between a real p2bnode
// and its in-process replica: the top-level sections of /healthz and the
// metric families of /metrics.
type surface struct {
	health   []string
	families []string
}

func surfaceOf(t *testing.T, client *http.Client, n *node) surface {
	t.Helper()
	var health map[string]json.RawMessage
	if err := getJSON(client, n.url+"/healthz", &health); err != nil {
		t.Fatal(err)
	}
	var s surface
	for k := range health {
		s.health = append(s.health, k)
	}
	body, err := getBody(client, n.url+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	families, err := metrics.CheckExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s/metrics: %v", n.url, err)
	}
	for f := range families {
		s.families = append(s.families, f)
	}
	sort.Strings(s.health)
	sort.Strings(s.families)
	return s
}

// TestReplicaMatchesRealNodeWiring boots the real p2bnode in every role
// the benchmark uses and the traced replica of the same topologies, and
// requires identical /healthz sections and /metrics families per role. The
// replica re-assembles a node from the public constructors by hand; this
// is what keeps it from silently drifting away from cmd/p2bnode/main.go.
func TestReplicaMatchesRealNodeWiring(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	bin, err := buildNode(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for _, name := range []string{"ingest_strict", "fleet_relay"} {
		w, _ := workloadByName(name)
		c, err := newCluster(root, bin)
		if err != nil {
			t.Fatal(err)
		}
		defer c.close(false)
		if err := c.plan(w); err != nil {
			t.Fatal(err)
		}
		if err := c.startAll(); err != nil {
			t.Fatal(err)
		}
		rep, err := buildReplica(w, t.TempDir(), newTracer())
		if err != nil {
			t.Fatal(err)
		}
		defer rep.close()
		for i, real := range c.nodes {
			if err := c.awaitReady(ctx, client, real); err != nil {
				t.Fatal(err)
			}
			twin := &rep.nodes[i].node
			if twin.name != real.name || twin.role != real.role {
				t.Fatalf("replica node %d is %s/%s, real node is %s/%s", i, twin.name, twin.role, real.name, real.role)
			}
			got, want := surfaceOf(t, client, twin), surfaceOf(t, client, real)
			if strings.Join(got.health, ",") != strings.Join(want.health, ",") {
				t.Errorf("%s %s: /healthz sections differ:\n replica %v\n real    %v", name, real.name, got.health, want.health)
			}
			if strings.Join(got.families, ",") != strings.Join(want.families, ",") {
				t.Errorf("%s %s: /metrics families differ:\n replica %v\n real    %v", name, real.name, got.families, want.families)
			}
		}
	}
}

// TestManifestMatchesBenchmarkJSON keeps the committed BENCHMARK.json and
// the tables in spec.go from naming different things, and holds the file
// to the limits of the driver's contract.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(committed), manifestJSON()) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
	if len(committed) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over the 64KiB limit", len(committed))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(s metricSpec) {
		if !name.MatchString(s.Name) || !unit.MatchString(s.Unit) || seen[s.Name] {
			t.Errorf("metric %q (unit %q) breaks the naming contract or repeats", s.Name, s.Unit)
		}
		seen[s.Name] = true
	}
	setup := false
	for _, s := range endToEnd {
		check(s)
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		setup = setup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
	layers := perLayer()
	for _, s := range layers {
		check(s)
	}
	if len(endToEnd) != 8 || len(layers) != 99 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 8 and 99", len(endToEnd), len(layers))
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q breaks the contract (why is %d chars)", w.name, len(w.why))
		}
	}
	// 4 + 22 runs per workload, each measuring runSeconds plus set-up,
	// recovery and build checks, must fit 3420s.
	if perRun := 3420.0 / float64(4+22*len(workloads)); float64(runSeconds)+10 > perRun {
		t.Errorf("run_seconds %d leaves under 10s of overhead per run in the %gs each run may take", runSeconds, perRun)
	}
}

// TestSmokeTracedFleet runs the whole traced path — real fleet, checks,
// recovery, traced replica, stage ledger — at smoke scale and requires
// every per-layer metric to be reported and every check to pass.
func TestSmokeTracedFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real four-node fleet")
	}
	w, _ := workloadByName("fleet_relay")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := run(ctx, runConfig{w: w, seed: 5, seconds: smokeSeconds, scale: 10}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("smoke run: correct=%v failed=%d violations=%q", res.Correct, res.Failed, res.Violations)
	}
	if len(res.Metrics) != len(perLayer()) {
		t.Fatalf("%d metrics reported, want %d", len(res.Metrics), len(perLayer()))
	}
	for _, must := range []string{"trace.topology.forward.calls", "trace.httpapi.peer_ingest.calls", "node.forward_batches", "node.peer_pushes"} {
		if res.Metrics[must] <= 0 {
			t.Errorf("%s = %v on the fleet, want > 0", must, res.Metrics[must])
		}
	}
}
