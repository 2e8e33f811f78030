// News personalization: the scenario from the paper's introduction. A news
// app recommends one of several article topics to each reader based on
// their interest profile. Keeping interest profiles on-device protects
// privacy but cold-starts every reader; P2B shares coarse encoded feedback
// so new readers get useful recommendations immediately.
//
// This example contrasts all three regimes and reports how many local
// interactions a fresh reader needs before the recommender is "useful"
// (mean reward above a threshold).
package main

import (
	"fmt"
	"log"

	"p2b"
)

const (
	topics  = 25 // candidate article topics (the actions)
	profile = 12 // interest profile dimension (the context)
	reads   = 20 // local interactions per reader
)

func main() {
	env, err := p2b.NewSyntheticEnvironment(p2b.SyntheticConfig{
		D: profile, Arms: topics, Beta: 0.1, Sigma: 0.1,
	}, 2024)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("news personalization: cold vs non-private vs P2B")
	fmt.Printf("readers' interest profiles: %d dims; article topics: %d; reads per reader: %d\n\n",
		profile, topics, reads)

	type regime struct {
		name string
		mode p2b.Mode
	}
	regimes := []regime{
		{"cold (full privacy, no sharing)", p2b.Cold},
		{"warm non-private (raw profiles shared)", p2b.WarmNonPrivate},
		{"warm private / P2B (epsilon = 0.693)", p2b.WarmPrivate},
	}

	const population = 20000
	for _, rg := range regimes {
		sys, err := p2b.NewSystem(p2b.Config{
			Mode:      rg.mode,
			T:         reads,
			P:         0.5,
			K:         1 << 8,
			Threshold: 10,
			// The code space is large relative to the population, so the
			// private agents pool observations through the centroid
			// learner (see the Learner docs).
			PrivateLearner: p2b.LearnerCentroid,
			Seed:           7,
		}, env, nil)
		if err != nil {
			log.Fatal(err)
		}
		sys.RunRange(0, population, true)
		sys.Flush()

		// A fresh cohort of readers measures the out-of-the-box experience.
		eval := sys.RunRange(5_000_000, 300, false)

		// How quickly does a fresh reader's session become useful? Compare
		// the reward in the first 5 reads with the last 5.
		early := eval.PrefixMean(5)
		overall := eval.Overall.Mean()
		fmt.Printf("%-42s first-5-reads %.5f   overall %.5f\n", rg.name, early, overall)
	}

	fmt.Println("\nexpected shape: both warm regimes lift the first reads well above cold;")
	fmt.Println("P2B trails the non-private upper bound slightly while guaranteeing")
	fmt.Printf("differential privacy at epsilon = %.4f.\n", p2b.Epsilon(0.5))
}
