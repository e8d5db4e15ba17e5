package serve_test

import (
	"sync"
	"testing"

	"gadt/internal/debugger"
	"gadt/internal/gadt"
	"gadt/internal/obs"
	"gadt/internal/paper"
	"gadt/internal/serve"
)

// TestConcurrentSessionsShareOneReplay runs 8 slicing sessions at once
// on one cached trace, the way the manager wires them. Under -race it
// exercises the lazily built dependence graph; the counter pins that
// the sessions share a single replay.
func TestConcurrentSessionsShareOneReplay(t *testing.T) {
	reg := obs.NewRegistry()
	cache := serve.NewCache(reg, 0)
	art, err, _ := cache.Artifact("sqrtest.pas", paper.Sqrtest, true, true)
	if err != nil {
		t.Fatal(err)
	}
	// The server loads artifacts unobserved; observe this one so the
	// replay counter is visible.
	art.System.Metrics = reg
	oracle, err := gadt.IntendedOracle(paper.SqrtestFixed)
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 8
	var wg sync.WaitGroup
	outs := make([]*debugger.Outcome, sessions)
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run, err, _ := cache.Trace(art, "", 0, 0)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i], errs[i] = debugger.New(run.Tree, oracle, debugger.Options{
				Slicing: true,
				Slicer:  run,
				Meta:    art.System.Transformed,
				Hints:   art.Hints,
				Metrics: reg,
			}).Run()
		}(i)
	}
	wg.Wait()
	for i, out := range outs {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if out.Slices == 0 {
			t.Errorf("session %d never sliced", i)
		}
		if !out.Localized() || out.Bug.Unit.Name != "decrement" {
			t.Errorf("session %d localized %v, want decrement", i, out.Bug)
		}
	}
	if got := reg.CounterVec("serve.cache.misses", "layer").With("trace").Value(); got != 1 {
		t.Errorf("trace misses = %d, want 1", got)
	}
	if got := reg.Counter("slicing.dynamic.replays").Value(); got != 1 {
		t.Errorf("slicing.dynamic.replays = %d, want 1", got)
	}
}
