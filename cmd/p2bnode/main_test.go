package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
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
