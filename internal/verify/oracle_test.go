package verify_test

// Report-equivalence oracle for the static checker.
//
// The grid below runs verify.Static over every built-in workload at four
// sizes, under every statically verifiable scheme at three fold widths and
// three analysis windows, and folds each report's JSON and String() into
// one SHA-256 digest. The compile engine (service.CompileSource) over the
// testdata/go corpus is folded in too, since every /compile scheme runs the
// static checker. The pinned digest was computed from the map-clock,
// regexp-site checker this test was written against, so any change to the
// checker's data structures must leave every report byte-identical.
// DSVERIFY_ORACLE_PRINT=1 go test -v -run StaticReportOracle prints the
// current digest.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/service"
	"github.com/csrd-repro/datasync/internal/verify"
)

const staticOracleDigest = "11eec197e2feaa5f4bf9ba4af390bdd4c446dce7c02fe4845a53585fffaa90ec"

func TestStaticReportOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("report oracle runs the full grid")
	}
	h := sha256.New()
	reports := 0
	for _, wname := range service.WorkloadNames() {
		for _, n := range []int64{0, 7, 13, 40} {
			for _, sname := range service.SchemeNames() {
				spec := service.SchemeSpec{Name: sname}
				if !spec.Verifiable() {
					continue
				}
				for _, x := range []int{0, 2, 3} {
					spec.X = x
					for _, mx := range []int64{0, 9, 600} {
						w, err := service.WorkloadSpec{Name: wname, N: n}.Build()
						if err != nil {
							t.Fatal(err)
						}
						sch, err := spec.Build()
						if err != nil {
							t.Fatal(err)
						}
						sp, err := codegen.ExtractSyncProgram(w, sch)
						if err != nil {
							t.Fatalf("%s n=%d %s x=%d: extract: %v", wname, n, sname, x, err)
						}
						rep := verify.Static(sp, verify.Options{MaxIters: mx})
						js, err := json.Marshal(rep)
						if err != nil {
							t.Fatal(err)
						}
						h.Write(js)
						h.Write([]byte(rep.String()))
						reports++
					}
				}
			}
		}
	}
	files, err := filepath.Glob("../../testdata/go/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata/go corpus: %v", err)
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out, err := service.CompileSource(filepath.Base(f), src, nil, service.ConfigSpec{})
		h.Write([]byte(f))
		if err != nil {
			h.Write([]byte(err.Error()))
			continue
		}
		js, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(js)
	}
	got := hex.EncodeToString(h.Sum(nil))
	if os.Getenv("DSVERIFY_ORACLE_PRINT") != "" {
		t.Logf("%d reports + %d compile sources: %s", reports, len(files), got)
	}
	if reports != 900 {
		t.Errorf("grid produced %d reports, want 900", reports)
	}
	if got != staticOracleDigest {
		t.Errorf("static report digest %s, want %s: a report changed", got, staticOracleDigest)
	}
}
