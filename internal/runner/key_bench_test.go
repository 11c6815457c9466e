package runner

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
)

// BenchmarkKeyFor measures the runner-lookup layer's fixed cost: the
// content address every Submit computes before it can consult the memo,
// for the request shape the serving front end builds (default machine, one
// benchmark × scheme, explicit budget and seed).
func BenchmarkKeyFor(b *testing.B) {
	m := config.Default()
	r := config.NewRun("gzip", core.BaseP())
	r.Instructions, r.Seed = 30_000, 7
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := KeyFor(m, r); !ok {
			b.Fatal("request not memoizable")
		}
	}
}
