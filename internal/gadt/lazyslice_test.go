package gadt_test

import (
	"errors"
	"testing"

	"gadt/internal/exectree"
	"gadt/internal/gadt"
	"gadt/internal/obs"
	"gadt/internal/paper"
	"gadt/internal/pascal/interp"
	"gadt/internal/slicing/dynamic"
)

// fuelBomb makes a few complete calls and then loops forever, so a step
// budget leaves a partial tree whose early calls still have outputs.
const fuelBomb = `
program bomb;
var i, s, t: integer;

function sq(x: integer): integer;
begin
  sq := x * x;
end;

procedure acc(x: integer; var r: integer);
begin
  r := r + sq(x);
end;

begin
  s := 0;
  for i := 1 to 3 do acc(i, s);
  t := sq(s);
  while t > 0 do t := t + 1;
  writeln(t);
end.`

// crasher computes through two calls and then divides by zero.
const crasher = `
program crash;
var x, y, z: integer;

function half(v: integer): integer;
begin
  half := v div 2;
end;

procedure setup(a: integer; var v: integer);
begin
  v := half(a) - 2;
end;

begin
  setup(4, x);
  setup(x + 9, y);
  z := 10 div x;
  writeln(y, z);
end.`

// TestLazySliceMatchesEagerRecorder checks that slices computed by
// Run.SliceOnOutput, whose recorder is built by replay on the first
// request, equal those of a recorder attached to the traced execution
// itself: same kept invocations and same contributing statements, for
// every output of every invocation.
func TestLazySliceMatchesEagerRecorder(t *testing.T) {
	cases := []struct {
		name, src string
		opts      gadt.TraceOpts
		wantErr   error // nil: the run must finish cleanly
		crashes   bool
	}{
		{name: "sqrtest-original", src: paper.Sqrtest, opts: gadt.TraceOpts{Original: true}},
		{name: "sqrtest-transformed", src: paper.Sqrtest},
		{name: "fuel-exhausted", src: fuelBomb, opts: gadt.TraceOpts{MaxSteps: 300}, wantErr: interp.ErrFuelExhausted},
		{name: "crashed", src: crasher, crashes: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := gadt.Load(tc.name+".pas", tc.src)
			if err != nil {
				t.Fatal(err)
			}
			run, err := sys.Trace(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.wantErr != nil && !errors.Is(run.RunErr, tc.wantErr):
				t.Fatalf("run error = %v, want %v", run.RunErr, tc.wantErr)
			case tc.crashes && run.RunErr == nil:
				t.Fatal("expected a runtime error")
			case tc.wantErr == nil && !tc.crashes && run.RunErr != nil:
				t.Fatalf("run error: %v", run.RunErr)
			}

			info := sys.Info
			if !tc.opts.Original {
				info = sys.Transformed.Info
			}
			rec := dynamic.NewRecorder(info)
			eager := exectree.TraceWith(info, exectree.TraceOpts{
				Input:    tc.opts.Input,
				Extra:    []interp.EventSink{rec},
				MaxSteps: tc.opts.MaxSteps,
				MaxDepth: tc.opts.MaxDepth,
			})

			compared := 0
			for _, n := range run.Tree.Nodes {
				en := eager.Tree.NodeByID(n.ID)
				if en == nil || en.Unit != n.Unit {
					t.Fatalf("node %d (%s) has no eager counterpart", n.ID, n.Unit.Name)
				}
				for _, out := range n.OutputNames() {
					lazy, lerr := run.SliceOnOutput(run.Tree, n, out)
					want, werr := rec.SliceOnOutput(eager.Tree, en, out)
					if (lerr == nil) != (werr == nil) {
						t.Fatalf("%s.%s: lazy err %v, eager err %v", n.Unit.Name, out, lerr, werr)
					}
					if lerr != nil {
						continue
					}
					compared++
					if got, w := keptIDs(lazy), keptIDs(want); !sameSet(got, w) {
						t.Errorf("%s.%s: kept %v, want %v", n.Unit.Name, out, got, w)
					}
					if !sameSet(lazy.Stmts, want.Stmts) {
						t.Errorf("%s.%s: %d statements, want %d", n.Unit.Name, out, len(lazy.Stmts), len(want.Stmts))
					}
				}
			}
			if compared == 0 {
				t.Fatal("no slice compared")
			}
		})
	}
}

// TestLazySliceFigures pins the F8 and F9 slices through the lazy path.
func TestLazySliceFigures(t *testing.T) {
	sys, err := gadt.Load("sqrtest.pas", paper.Sqrtest)
	if err != nil {
		t.Fatal(err)
	}
	sys.Metrics = obs.NewRegistry()
	run, err := sys.Trace(gadt.TraceOpts{Original: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		unit, output string
		kept         int
	}{
		{"computs", "r1", 11},    // Figure 8
		{"partialsums", "s2", 8}, // Figure 9
	} {
		var target *exectree.Node
		for _, n := range run.Tree.Nodes {
			if n.Unit.Name == c.unit {
				target = n
				break
			}
		}
		sl, err := run.SliceOnOutput(run.Tree, target, c.output)
		if err != nil {
			t.Fatal(err)
		}
		if sl.Size() != c.kept {
			t.Errorf("slice on %s.%s keeps %d nodes, want %d", c.unit, c.output, sl.Size(), c.kept)
		}
	}
	if got := sys.Metrics.Counter("slicing.dynamic.replays").Value(); got != 1 {
		t.Errorf("slicing.dynamic.replays = %d, want 1 for two slices of one run", got)
	}
	if got := sys.Metrics.Gauge("slicing.dynamic.events").Value(); got == 0 {
		t.Error("slicing.dynamic.events not set by the replay")
	}
}

// TestLazySliceDivergentReplay: a replay that does not retrace the run
// must refuse to slice rather than mis-map node IDs.
func TestLazySliceDivergentReplay(t *testing.T) {
	sys, err := gadt.Load("sqrtest.pas", paper.Sqrtest)
	if err != nil {
		t.Fatal(err)
	}
	run, err := sys.Trace(gadt.TraceOpts{Original: true})
	if err != nil {
		t.Fatal(err)
	}
	run.Steps++ // as if the traced run had executed one more statement
	var target *exectree.Node
	for _, n := range run.Tree.Nodes {
		if n.Unit.Name == "computs" {
			target = n
		}
	}
	if _, err := run.SliceOnOutput(run.Tree, target, "r1"); err == nil {
		t.Fatal("slice of a diverged replay succeeded")
	}
}

func keptIDs(sl *dynamic.TreeSlice) map[int64]bool {
	ids := make(map[int64]bool, len(sl.Kept))
	for n := range sl.Kept {
		ids[n.ID] = true
	}
	return ids
}

func sameSet[K comparable](a, b map[K]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
