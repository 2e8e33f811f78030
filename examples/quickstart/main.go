// Quickstart: the smallest end-to-end P2B run. A population of simulated
// users contributes encoded interactions through the private pipeline, and
// a fresh user cohort shows the warm-start benefit — at a concrete,
// quantified privacy cost.
package main

import (
	"fmt"
	"log"

	"p2b"
)

func main() {
	// A synthetic personalization task: 10-dimensional user preference
	// vectors, 20 candidate actions, rewards following the paper's scaled
	// softmax model.
	env, err := p2b.NewSyntheticEnvironment(p2b.SyntheticConfig{
		D: 10, Arms: 20, Beta: 0.1, Sigma: 0.1,
	}, 42)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's default deployment: 10 local interactions per user,
	// participation probability 0.5 (epsilon = ln 2), k-means encoder, and
	// a shuffler enforcing crowd-blending threshold 10. The code space is
	// sized so that codes can actually clear the threshold at this
	// population scale (the paper notes l must be matched to the data).
	sys, err := p2b.NewSystem(p2b.Config{
		Mode:      p2b.WarmPrivate,
		T:         10,
		P:         0.5,
		K:         1 << 4,
		Threshold: 10,
		Seed:      1,
	}, env, nil)
	if err != nil {
		log.Fatal(err)
	}

	// A cold-only system for comparison: same task, no sharing.
	cold, err := p2b.NewSystem(p2b.Config{
		Mode: p2b.Cold, T: 10, Seed: 1,
	}, env, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("P2B quickstart: private warm-start vs cold-start")
	fmt.Printf("privacy guarantee: epsilon = %.4f per disclosure (p = 0.5)\n\n", sys.Epsilon())
	fmt.Printf("%-12s  %-14s  %-14s\n", "users", "cold reward", "private reward")

	const evalCohort = 400
	contributors := 0
	for _, u := range []int{100, 1000, 10000, 30000} {
		sys.RunRange(contributors, u-contributors, true)
		contributors = u
		sys.Flush()

		coldEval := cold.RunRange(1_000_000, evalCohort, false)
		privEval := sys.RunRange(1_000_000, evalCohort, false)
		fmt.Printf("%-12d  %-14.5f  %-14.5f\n", u, coldEval.Overall.Mean(), privEval.Overall.Mean())
	}

	shufStats := sys.Shuffler().Stats()
	fmt.Printf("\npipeline: %d tuples submitted, %d forwarded, %d consumed by the l=10 threshold\n",
		sys.Submitted(), shufStats.Forwarded, shufStats.Dropped)
	fmt.Println("note: every forwarded tuple blended with >= 10 same-code tuples in its batch.")
}
