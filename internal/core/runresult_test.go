package core

import (
	"math"
	"testing"

	"p2b/internal/stats"
)

// These tests cover RunResult.merge and PrefixMean edge cases: uneven
// ByStep lengths (users simulated with different horizons), empty results
// (an empty cohort), and prefix lengths beyond the recorded
// horizon.

func resultWithSteps(rewards ...float64) RunResult {
	res := RunResult{ByStep: make([]stats.Running, len(rewards))}
	for t, r := range rewards {
		res.Overall.Add(r)
		res.ByStep[t].Add(r)
	}
	return res
}

func TestMergeUnevenByStepShortIntoLong(t *testing.T) {
	long := resultWithSteps(1, 1, 1)
	short := resultWithSteps(0)
	long.merge(short)
	if got := long.Overall.Count(); got != 4 {
		t.Fatalf("overall count = %d, want 4", got)
	}
	if len(long.ByStep) != 3 {
		t.Fatalf("ByStep length = %d, want 3", len(long.ByStep))
	}
	if got := long.ByStep[0].Count(); got != 2 {
		t.Fatalf("step 0 count = %d, want 2", got)
	}
	if got := long.ByStep[0].Mean(); got != 0.5 {
		t.Fatalf("step 0 mean = %v, want 0.5", got)
	}
	if got := long.ByStep[2].Count(); got != 1 {
		t.Fatalf("step 2 count = %d, want 1", got)
	}
}

func TestMergeUnevenByStepLongIntoShort(t *testing.T) {
	short := resultWithSteps(0)
	long := resultWithSteps(1, 1, 1)
	short.merge(long)
	if len(short.ByStep) != 3 {
		t.Fatalf("ByStep length = %d, want 3 after growth", len(short.ByStep))
	}
	if got := short.ByStep[0].Count(); got != 2 {
		t.Fatalf("step 0 count = %d, want 2", got)
	}
	// Steps beyond the short horizon carry only the long result's data.
	if got := short.ByStep[1].Mean(); got != 1 {
		t.Fatalf("step 1 mean = %v, want 1", got)
	}
}

func TestMergeEmptyResults(t *testing.T) {
	var empty RunResult
	res := resultWithSteps(0.25, 0.75)
	res.merge(RunResult{}) // empty into populated: no-op
	if got := res.Overall.Count(); got != 2 {
		t.Fatalf("count after merging empty = %d, want 2", got)
	}
	empty.merge(res) // populated into empty: full copy
	if got := empty.Overall.Count(); got != 2 {
		t.Fatalf("count after merging into empty = %d, want 2", got)
	}
	if len(empty.ByStep) != 2 {
		t.Fatalf("ByStep length = %d, want 2", len(empty.ByStep))
	}
	var both RunResult
	both.merge(RunResult{}) // empty into empty stays empty
	if both.Overall.Count() != 0 || len(both.ByStep) != 0 {
		t.Fatal("merging two empty results should stay empty")
	}
}

func TestPrefixMeanClampsBeyondHorizon(t *testing.T) {
	res := resultWithSteps(0, 0.5, 1)
	if got := res.PrefixMean(2); got != 0.25 {
		t.Fatalf("PrefixMean(2) = %v, want 0.25", got)
	}
	// n beyond the horizon clamps to the full mean.
	if got, want := res.PrefixMean(10), 0.5; got != want {
		t.Fatalf("PrefixMean(10) = %v, want %v", got, want)
	}
	if got := res.PrefixMean(len(res.ByStep)); got != 0.5 {
		t.Fatalf("PrefixMean(len) = %v, want 0.5", got)
	}
}

func TestPrefixMeanDegenerate(t *testing.T) {
	var empty RunResult
	if got := empty.PrefixMean(5); !math.IsNaN(got) && got != 0 {
		t.Fatalf("PrefixMean of empty result = %v, want 0 or NaN", got)
	}
	res := resultWithSteps(0.5)
	if got := res.PrefixMean(0); !math.IsNaN(got) && got != 0 {
		t.Fatalf("PrefixMean(0) = %v, want 0 or NaN", got)
	}
}
