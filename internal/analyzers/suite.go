package analyzers

import (
	"p2b/internal/analyzers/analysis"
	"p2b/internal/analyzers/atomichygiene"
	"p2b/internal/analyzers/detrand"
	"p2b/internal/analyzers/hotalloc"
	"p2b/internal/analyzers/statdrift"
	"p2b/internal/analyzers/walswitch"
)

// DeterminismCritical lists the packages whose outputs must be pure
// functions of their inputs: the encode→shuffle→aggregate pipeline,
// its persistence, and the fleet layer whose byte-for-byte equivalence
// CI proves. detrand runs only here — packages like httpapi and agent
// legitimately read wall clocks for timeouts and telemetry timestamps.
var DeterminismCritical = []string{
	"p2b/internal/rng",
	"p2b/internal/shuffler",
	"p2b/internal/server",
	"p2b/internal/persist",
	"p2b/internal/encoding",
	"p2b/internal/bandit",
	"p2b/internal/mat",
	"p2b/internal/topology",
}

// ConcurrencyCritical lists the serving-path packages where atomics and
// mutexes guard hot shared state; atomichygiene runs over these.
var ConcurrencyCritical = []string{
	"p2b/internal/httpapi",
	"p2b/internal/server",
	"p2b/internal/topology",
	"p2b/internal/shuffler",
	"p2b/internal/persist",
	"p2b/internal/metrics",
}

// Suite returns the p2bvet analyzer suite with its package scoping.
// hotalloc, walswitch and statdrift are self-scoping (annotations,
// markers and registration calls respectively) and run everywhere.
func Suite() []Config {
	return []Config{
		{Analyzer: detrand.Analyzer, Packages: DeterminismCritical},
		{Analyzer: hotalloc.Analyzer},
		{Analyzer: walswitch.Analyzer},
		{Analyzer: atomichygiene.Analyzer, Packages: ConcurrencyCritical},
		{Analyzer: statdrift.Analyzer},
	}
}

// Analyzers returns the suite's analyzers in registration order, for
// help output.
func Analyzers() []*analysis.Analyzer {
	suite := Suite()
	out := make([]*analysis.Analyzer, len(suite))
	for i, c := range suite {
		out[i] = c.Analyzer
	}
	return out
}
