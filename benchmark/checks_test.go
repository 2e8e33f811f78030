package main

import (
	"context"
	"strings"
	"testing"
)

// stubRun posts a few bodies to a fresh stub through the real generator
// and returns everything the checkers need.
func stubRun(t *testing.T, prepare func(*stubNode)) (*stubNode, *generator) {
	t.Helper()
	w, _ := workloadByName("ingest_strict")
	s := newStubNode(t, w)
	if prepare != nil {
		prepare(s)
	}
	ingest := []*node{s.as("combined")}
	gen := newGenerator(w, generate(w, 7), 2, ingest, ingest)
	if err := gen.sendBodies(context.Background(), 0, 6); err != nil {
		t.Fatal(err)
	}
	return s, gen
}

func wantViolation(t *testing.T, got []string, want string) {
	t.Helper()
	for _, v := range got {
		if strings.Contains(v, want) {
			return
		}
	}
	t.Fatalf("want a violation containing %q, got %q", want, got)
}

func TestCheckersPassOnHonestNode(t *testing.T) {
	s, gen := stubRun(t, nil)
	n := s.as("combined")
	if bad := checkConservation(gen.client, []*node{n}, []*node{n}, gen.ackedCounts()); len(bad) != 0 {
		t.Fatalf("conservation on an honest node: %q", bad)
	}
	if bad := checkCrowd(gen.client, n, s.w); len(bad) != 0 {
		t.Fatalf("crowd on an honest node: %q", bad)
	}
	before, err := captureDurable(gen.client, n, n)
	if err != nil {
		t.Fatal(err)
	}
	s.restart()
	if bad := checkDurability(gen.client, n, n, gen.acked[0].Load(), before); len(bad) != 0 {
		t.Fatalf("durability on an honest node: %q", bad)
	}
	relay, analyzer := s.as("relay"), s.as("analyzer")
	if bad := checkConservation(gen.client, []*node{relay}, []*node{analyzer}, gen.ackedCounts()); len(bad) != 0 {
		t.Fatalf("conservation on an honest fleet: %q", bad)
	}
	if bad := checkConvergence(gen.client, []*node{analyzer, analyzer}); len(bad) != 0 {
		t.Fatalf("convergence of a node with itself: %q", bad)
	}
}

func TestConservationCatchesDroppedAckedBatch(t *testing.T) {
	s, gen := stubRun(t, func(s *stubNode) { s.dropAckedBatch = true })
	n := s.as("combined")
	wantViolation(t, checkConservation(gen.client, []*node{n}, []*node{n}, gen.ackedCounts()), "acknowledged")
}

func TestCrowdCheckCatchesCellBelowThreshold(t *testing.T) {
	s, gen := stubRun(t, func(s *stubNode) { s.smallCrowd = true })
	wantViolation(t, checkCrowd(gen.client, s.as("combined"), s.w), "below the threshold")
	// The generator applies the same check to every model it fetches.
	if _, err := gen.newWorker().fetch(0, fetchShape{}); err != nil {
		t.Fatal(err)
	}
	wantViolation(t, gen.violations, "below the threshold")
}

func TestExactlyOnceCatchesReplayedRelayBatch(t *testing.T) {
	s, gen := stubRun(t, func(s *stubNode) { s.extraApply = 1 })
	wantViolation(t, checkConservation(gen.client, []*node{s.as("relay")}, []*node{s.as("analyzer")}, gen.ackedCounts()), "exactly-once")
}

func TestDurabilityCatchesLostWALTail(t *testing.T) {
	s, gen := stubRun(t, func(s *stubNode) { s.loseTail = 200 })
	n := s.as("combined")
	before, err := captureDurable(gen.client, n, n)
	if err != nil {
		t.Fatal(err)
	}
	s.restart()
	bad := checkDurability(gen.client, n, n, gen.acked[0].Load(), before)
	wantViolation(t, bad, "survived the restart")
	wantViolation(t, bad, "different tabular model")
}

func TestConvergenceCatchesDivergedAnalyzers(t *testing.T) {
	a, gen := stubRun(t, nil)
	b, _ := stubRun(t, func(s *stubNode) { s.smallCrowd = true })
	wantViolation(t, checkConvergence(gen.client, []*node{a.as("analyzer"), b.as("analyzer")}), "different tabular models")
}
