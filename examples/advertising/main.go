// Advertising: the paper's §5.3 scenario on a Criteo-shaped click log.
// Agents recommend one of 40 product categories; a recommendation only pays
// off when it matches the logged impression and the user actually clicked.
// The punchline reproduced here is the paper's surprising Figure 7 result:
// with enough local interactions, the private agents (tabular over encoded
// contexts) overtake their non-private counterparts, because the encoded
// context space is small, fast to explore, and aligned with the nonlinear
// click behaviour.
package main

import (
	"fmt"
	"log"

	"p2b"
)

func main() {
	const (
		agents       = 600
		perAgent     = 300
		interactions = 300
	)
	env, total, err := p2b.NewAdLogEnvironment(p2b.CriteoLikeConfig(agents*perAgent*11/10), perAgent, 99)
	if err != nil {
		log.Fatal(err)
	}
	n := agents
	if total < n {
		n = total
	}
	trainN := n * 70 / 100

	fmt.Println("online advertising on a Criteo-shaped log")
	fmt.Printf("%d agents x %d impressions, 40 product categories, d=10 context\n\n", n, perAgent)
	fmt.Printf("%-10s  %-12s  %-16s  %-14s\n", "reads", "cold CTR", "non-private CTR", "private CTR")

	for _, reads := range []int{25, 100, 300} {
		row := map[p2b.Mode]float64{}
		for _, mode := range []p2b.Mode{p2b.Cold, p2b.WarmNonPrivate, p2b.WarmPrivate} {
			sys, err := p2b.NewSystem(p2b.Config{
				Mode:         mode,
				T:            reads,
				P:            0.5,
				K:            1 << 5, // the paper's k = 2^5 panel
				Threshold:    10,
				ReportWindow: 10, // one reporting opportunity per 10 reads
				Seed:         3,
			}, env, nil)
			if err != nil {
				log.Fatal(err)
			}
			train := make([]int, trainN)
			for i := range train {
				train[i] = i
			}
			test := make([]int, n-trainN)
			for i := range test {
				test[i] = trainN + i
			}
			sys.RunUsers(train, true)
			sys.Flush()
			eval := sys.RunUsers(test, false)
			row[mode] = eval.Overall.Mean()
		}
		fmt.Printf("%-10d  %-12.5f  %-16.5f  %-14.5f\n",
			reads, row[p2b.Cold], row[p2b.WarmNonPrivate], row[p2b.WarmPrivate])
	}

	fmt.Println("\nexpected shape: at low interaction counts private and non-private are")
	fmt.Println("close; as local interactions grow the private agents catch up and often")
	fmt.Println("pass the non-private ones (the paper reports a +0.0025 CTR difference).")
	fmt.Printf("privacy: every contribution is one tuple at epsilon = %.4f.\n", p2b.Epsilon(0.5))
}
