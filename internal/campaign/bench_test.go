package campaign_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"gadt/internal/campaign"
	"gadt/internal/mutate"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
)

// BenchmarkCampaignWorkers measures the same fixed-seed campaign under
// different pool sizes; the multi-worker rows should beat workers=1 on
// wall clock (ns/op) on any multi-core machine:
//
//	go test -bench=CampaignWorkers -benchtime=1x ./internal/campaign
func BenchmarkCampaignWorkers(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := campaign.Run(campaign.Config{
					Seed:    1,
					Budget:  48,
					Workers: workers,
					Timeout: time.Minute,
				})
				if err != nil {
					b.Fatal(err)
				}
				// Provably equivalent mutants bypass the budget.
				if n := rep.Mutants - rep.Equivalent; n != 48 {
					b.Fatalf("evaluated %d mutants, want 48", n)
				}
			}
		})
	}
}

// BenchmarkEnumerateDefaultSubjects measures mutant enumeration of the
// whole default subject set, the largest part of a campaign's set-up:
//
//	go test -run='^$' -bench=EnumerateDefaultSubjects -benchmem ./internal/campaign
func BenchmarkEnumerateDefaultSubjects(b *testing.B) {
	subjects := campaign.DefaultSubjects()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range subjects {
			if _, err := mutate.EnumerateProgram(s.Name+".pas", s.Source, mutate.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAnalyzeDefaultSubjects measures semantic analysis of every
// default subject, which a campaign repeats per enumerated site, per
// loaded mutant and per transform pass. Parsing happens once, outside
// the timer:
//
//	go test -run='^$' -bench=AnalyzeDefaultSubjects -benchmem ./internal/campaign
func BenchmarkAnalyzeDefaultSubjects(b *testing.B) {
	var progs []*ast.Program
	for _, s := range campaign.DefaultSubjects() {
		prog, err := parser.ParseProgram(s.Name+".pas", s.Source)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, prog)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			if _, err := sem.Analyze(prog); err != nil {
				b.Fatal(err)
			}
		}
	}
}
