// Command p2bprivacy computes P2B's differential-privacy parameters: the
// epsilon achieved by a participation probability (Equation 3), the inverse
// map from a target epsilon, the delta bound for a crowd-blending size, and
// composed budgets over repeated disclosures.
//
// Usage:
//
//	p2bprivacy -p 0.5 -l 10            # epsilon & delta for one deployment
//	p2bprivacy -eps 1.0                # participation probability for a target
//	p2bprivacy -p 0.5 -r 5             # composed budget over 5 disclosures
//	p2bprivacy -table                  # the Figure 3 sweep
package main

import (
	"flag"
	"fmt"
	"os"

	"p2b/internal/privacy"
)

func main() {
	var (
		p     = flag.Float64("p", -1, "participation probability in [0, 1)")
		eps   = flag.Float64("eps", -1, "target epsilon; prints the largest p achieving it")
		l     = flag.Int("l", 0, "crowd-blending size (shuffler threshold); adds the delta bound")
		omega = flag.Float64("omega", privacy.DefaultOmega, "constant in the delta bound exp(-omega*l*(1-p)^2)")
		r     = flag.Int("r", 1, "number of disclosures per user (basic composition)")
		table = flag.Bool("table", false, "print the epsilon(p) sweep of Figure 3")
	)
	flag.Parse()

	switch {
	case *table:
		fmt.Println("p       epsilon")
		for pp := 0.05; pp < 0.96; pp += 0.05 {
			fmt.Printf("%.2f    %.6f\n", pp, privacy.Epsilon(pp))
		}
	case *eps >= 0:
		pp := privacy.ParticipationForEpsilon(*eps)
		fmt.Printf("target epsilon %.6f -> participation probability p = %.6f\n", *eps, pp)
		fmt.Printf("check: Epsilon(%.6f) = %.6f\n", pp, privacy.Epsilon(pp))
	case *p >= 0:
		if err := privacy.CheckParticipation(*p); err != nil {
			fmt.Fprintln(os.Stderr, "p2bprivacy:", err)
			os.Exit(2)
		}
		e := privacy.Epsilon(*p)
		fmt.Printf("participation p = %.4f\n", *p)
		fmt.Printf("per-disclosure epsilon = %.6f\n", e)
		if *r > 1 {
			fmt.Printf("composed epsilon over %d disclosures = %.6f (basic)\n", *r, privacy.Compose(e, *r))
			fmt.Printf("composed epsilon over %d disclosures = %.6f (advanced, slack 1e-6)\n",
				*r, privacy.AdvancedCompose(e, *r, 1e-6))
		}
		if *l > 0 {
			fmt.Printf("delta bound (l=%d, omega=%.2f) = %.3e\n", *l, *omega, privacy.Delta(*l, *p, *omega))
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
