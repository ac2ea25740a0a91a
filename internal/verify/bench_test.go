package verify_test

import (
	"fmt"
	"testing"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/service"
	"github.com/csrd-repro/datasync/internal/verify"
)

// benchSchemes are the scheme families the layer benchmarks cover.
var benchSchemes = []string{"process", "statement", "ref", "instance"}

// BenchmarkStatic times verify.Static on an already extracted program, so
// each op includes per-iteration materialization (SyncProgram.At) but not
// instrumentation. n=600 exercises the default 512-iteration window.
func BenchmarkStatic(b *testing.B) {
	for _, wname := range service.WorkloadNames() {
		for _, sname := range benchSchemes {
			for _, n := range []int64{0, 600} {
				size := "default"
				if n > 0 {
					size = fmt.Sprintf("n=%d", n)
				}
				b.Run(fmt.Sprintf("%s/%s/%s", wname, sname, size), func(b *testing.B) {
					sp := benchProgram(b, service.WorkloadSpec{Name: wname, N: n}, sname)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						verify.Static(sp, verify.Options{})
					}
				})
			}
		}
	}
}

// BenchmarkExtractSyncProgram times instrumentation into an analyzable
// program (the step /verify and /compile run before Static).
func BenchmarkExtractSyncProgram(b *testing.B) {
	for _, sname := range benchSchemes {
		b.Run(sname, func(b *testing.B) {
			w, err := service.WorkloadSpec{Name: "fig21"}.Build()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sch, _ := service.SchemeSpec{Name: sname}.Build()
				if _, err := codegen.ExtractSyncProgram(w, sch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDynamic times the vector-clock replay of a recorded sync trace.
func BenchmarkDynamic(b *testing.B) {
	cfg := service.ConfigSpec{}.SimConfig()
	for _, sname := range benchSchemes {
		b.Run(sname, func(b *testing.B) {
			w, err := service.WorkloadSpec{Name: "fig21"}.Build()
			if err != nil {
				b.Fatal(err)
			}
			sch, _ := service.SchemeSpec{Name: sname}.Build()
			_, events, err := codegen.RunSyncTraced(w, sch, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := verify.Dynamic(events); !rep.OK() {
					b.Fatal(rep)
				}
			}
		})
	}
}

func benchProgram(b *testing.B, ws service.WorkloadSpec, sname string) *codegen.SyncProgram {
	b.Helper()
	w, err := ws.Build()
	if err != nil {
		b.Fatal(err)
	}
	sch, err := service.SchemeSpec{Name: sname}.Build()
	if err != nil {
		b.Fatal(err)
	}
	sp, err := codegen.ExtractSyncProgram(w, sch)
	if err != nil {
		b.Fatal(err)
	}
	return sp
}
