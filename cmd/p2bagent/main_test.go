package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The "### p2bagent" table in OPERATIONS.md is the operator's flag
// reference; nothing else ties it to the binary. Every registered flag
// must have its own row carrying its exact default and its -h text
// (backticks aside), and every row a flag.
func TestOperationsFlagTableMatchesRegisteredFlags(t *testing.T) {
	doc, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n### p2bagent\n")
	if !ok {
		t.Fatal("OPERATIONS.md has no \"### p2bagent\" section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	row := regexp.MustCompile("(?m)^\\| `-([A-Za-z-]+)` \\| (`[^`]*`|\\(empty\\)) \\| (.*) \\|$")
	type entry struct{ def, usage string }
	documented := map[string]entry{}
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		def := strings.Trim(m[2], "`")
		if m[2] == "(empty)" {
			def = ""
		}
		documented[m[1]] = entry{def, strings.ReplaceAll(m[3], "`", "")}
	}

	fs := flag.NewFlagSet("p2bagent", flag.ContinueOnError)
	registerFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		e, ok := documented[f.Name]
		switch {
		case !ok:
			t.Errorf("flag -%s is registered but has no row of its own in the OPERATIONS.md p2bagent table", f.Name)
		case e.def != f.DefValue:
			t.Errorf("flag -%s: OPERATIONS.md documents default %q, the binary registers %q", f.Name, e.def, f.DefValue)
		case e.usage != f.Usage:
			t.Errorf("flag -%s: OPERATIONS.md says %q, the binary's -h says %q", f.Name, e.usage, f.Usage)
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		t.Errorf("OPERATIONS.md documents -%s, which p2bagent does not register", name)
	}
}
