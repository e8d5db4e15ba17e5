// Quickstart: load a buggy Pascal program, run it with tracing, and let
// the generalized algorithmic debugger localize the planted bug using a
// reference implementation as the oracle.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"gadt/internal/gadt"
	"gadt/internal/paper"
)

func main() {
	// 1. Load the subject program (Figure 4 of the paper: computes the
	//    square of sum([1,2]) two ways; `decrement` has a planted bug).
	sys, err := gadt.Load("sqrtest.pas", paper.Sqrtest)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Phases 1–2: transform away side effects, run, build the
	//    execution tree and the dynamic dependence graph.
	run, err := sys.Trace(gadt.TraceOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("program output: %s", run.Output) // "false" — the symptom
	fmt.Printf("execution tree has %d unit invocations\n\n", run.Tree.Size())

	// 3. Phase 3: algorithmic debugging. Here a known-good reference
	//    implementation answers the queries (an ideal user); run the
	//    interactive CLI (cmd/gadt) to answer them yourself.
	oracle, err := gadt.IntendedOracle(paper.SqrtestFixed)
	if err != nil {
		log.Fatal(err)
	}
	out, err := run.Debug(oracle, gadt.DebugConfig{Slicing: true})
	if err != nil {
		log.Fatal(err)
	}

	if out.Localized() {
		fmt.Printf("%s\n", out.Reason)
	}
	fmt.Printf("oracle questions: %d, slicing steps: %d\n", out.Questions, out.Slices)
}
