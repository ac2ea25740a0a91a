package verify_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/lang"
	"github.com/csrd-repro/datasync/internal/verify"
)

// TestStaticRepeatedStatementNames runs the checker on a parsed nest with
// more statements than distinct names: a label repeats an automatic S<n>
// name, so statement positions outnumber the names that map to them.
func TestStaticRepeatedStatementNames(t *testing.T) {
	var src strings.Builder
	src.WriteString("DO I = 1, 12\n")
	for k := 1; k <= 17; k++ {
		fmt.Fprintf(&src, "  A%d[I+1] = A%d[I] + %d\n", k, k, k)
	}
	src.WriteString("  S2: B[I] = A1[I] + A17[I]\n  S2: C[I] = B[I] + 1\nEND DO\n")
	w, err := lang.Parse(src.String())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if n := len(w.Nest.Stmts()); n != 19 {
		t.Fatalf("parsed %d statements, want 19", n)
	}
	for _, s := range vetSchemes() {
		sp, err := codegen.ExtractSyncProgram(w, s.sch)
		if err != nil {
			t.Fatalf("%s: extract: %v", s.name, err)
		}
		if rep := verify.Static(sp, verify.Options{}); rep.PairsChecked == 0 {
			t.Errorf("%s: no dependence pairs checked:\n%s", s.name, rep)
		}
	}
}
