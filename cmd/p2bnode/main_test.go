package main

import (
	"flag"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"p2b/internal/core"
	"p2b/internal/privacy"
	"p2b/internal/rng"
	"p2b/internal/shuffler"
	"p2b/internal/synthetic"
	"p2b/internal/transport"
)

// The "### p2bnode" table in OPERATIONS.md is the operator's flag
// reference; nothing else ties it to the binary. Every registered flag
// must have a row with its exact default, and every row a flag.
func TestOperationsFlagTableMatchesRegisteredFlags(t *testing.T) {
	doc, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n### p2bnode\n")
	if !ok {
		t.Fatal("OPERATIONS.md has no \"### p2bnode\" section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	row := regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\| (`[^`]*`|\\(empty\\)) \\|")
	documented := map[string]string{}
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		def := strings.Trim(m[2], "`")
		if m[2] == "(empty)" {
			def = ""
		}
		documented[m[1]] = def
	}

	fs := flag.NewFlagSet("p2bnode", flag.ContinueOnError)
	registerFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		def, ok := documented[f.Name]
		switch {
		case !ok:
			t.Errorf("flag -%s is registered but has no row in the OPERATIONS.md p2bnode table", f.Name)
		case def != f.DefValue:
			t.Errorf("flag -%s: OPERATIONS.md documents default %q, the binary registers %q", f.Name, def, f.DefValue)
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		t.Errorf("OPERATIONS.md documents -%s, which p2bnode does not register", name)
	}
}

// parseFlags resolves a command line the way main does.
func parseFlags(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("p2bnode", flag.ContinueOnError)
	o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := o.resolve(); err != nil {
		t.Fatal(err)
	}
	return o
}

// A node started without -batch runs the batch the figures are measured
// under: the node and the simulator both take it from
// privacy.DefaultBatchSize.
func TestDefaultBatchMatchesSimulator(t *testing.T) {
	env, err := synthetic.New(synthetic.Config{D: 2, Arms: 2, Beta: 0.1, Sigma: 0.1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ k, l int }{{1024, 10}, {64, 4}, {8, 2}, {32, 0}} {
		o := parseFlags(t, "-k", strconv.Itoa(c.k), "-threshold", strconv.Itoa(c.l))
		sys, err := core.NewSystem(core.Config{Mode: core.Cold, K: c.k, Threshold: c.l}, env, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := privacy.DefaultBatchSize(c.k, c.l)
		if o.Shuffler.BatchSize != want || sys.Config().BatchSize != want {
			t.Errorf("k=%d l=%d: node batch %d, simulator batch %d, want %d",
				c.k, c.l, o.Shuffler.BatchSize, sys.Config().BatchSize, want)
		}
	}
	if o := parseFlags(t, "-batch", "77"); o.Shuffler.BatchSize != 77 {
		t.Errorf("explicit -batch 77 resolved to %d", o.Shuffler.BatchSize)
	}
}

// At the node's default flags (k = 1024, l = 10) a skewed code mix mostly
// clears the threshold; a 320-tuple batch (32*l) keeps only about 30% of
// the same Zipf(1) stream.
func TestDefaultFlagsKeepZipfTuples(t *testing.T) {
	o := parseFlags(t)
	shuf := shuffler.New(o.Shuffler, shuffler.SinkFunc(func([]transport.Tuple) {}), rng.New(o.Server.Seed))
	zipf := rng.NewZipf(rng.New(11), 1, o.Server.K)
	tuples := make([]transport.Tuple, 5*o.Shuffler.BatchSize)
	for i := range tuples {
		tuples[i].Code = zipf.Draw()
	}
	shuf.SubmitTuples(tuples)
	st := shuf.Stats()
	if st.Batches != 5 {
		t.Fatalf("%d batches cut, want 5", st.Batches)
	}
	if kept := float64(st.Forwarded) / float64(st.Received); kept < 0.9 {
		t.Fatalf("default flags keep %.1f%% of Zipf(1) tuples at k=%d l=%d batch=%d, want >= 90%%",
			100*kept, o.Server.K, o.Shuffler.Threshold, o.Shuffler.BatchSize)
	}
}
