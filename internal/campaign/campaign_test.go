package campaign_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"gadt/internal/campaign"
	"gadt/internal/debugger"
	"gadt/internal/gadt"
	"gadt/internal/mutate"
	"gadt/internal/obs"
)

// loopSubject is crafted so the operator set provably produces all
// three interesting fates: output-diff kills (negated/flipped loop
// conditions exit early), crashes, and planted infinite loops
// (const-off-by-one turning `i + 1` into `i + 0`) that must classify as
// timeout instead of hanging the pool.
const loopSubject = `
program looper;
var i, s: integer;

procedure accumulate(n: integer; var total: integer);
var i: integer;
begin
  total := 0;
  i := 0;
  while i < n do begin
    total := total + i;
    i := i + 1;
  end;
end;

begin
  accumulate(5, s);
  writeln(s);
end.
`

func small(t *testing.T, cfg campaign.Config) *campaign.Report {
	t.Helper()
	rep, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCampaignLooperFates runs every mutant of the looper subject and
// checks the classifier: kills, timeouts (infinite loops stopped by
// fuel), consistent totals, and correct localization data.
func TestCampaignLooperFates(t *testing.T) {
	rep := small(t, campaign.Config{
		Subjects: []campaign.Subject{{Name: "looper", Source: loopSubject}},
		Seed:     1,
		Fuel:     20_000,
		Timeout:  time.Minute,
	})
	if rep.Mutants == 0 || rep.Mutants != rep.Enumerated {
		t.Fatalf("evaluated %d of %d mutants", rep.Mutants, rep.Enumerated)
	}
	if got := rep.Killed + rep.Survived + rep.Timeout + rep.Stillborn + rep.Panics + rep.Equivalent; got != rep.Mutants {
		t.Errorf("status totals %d != mutants %d", got, rep.Mutants)
	}
	if rep.Killed == 0 {
		t.Error("no mutants killed")
	}
	if rep.Timeout == 0 {
		t.Error("no timeout mutants: expected the i+0 infinite loop to exhaust fuel")
	}
	if rep.Panics != 0 {
		t.Errorf("%d pipeline panics", rep.Panics)
	}
	// Every killed-and-debugged mutant carries one score per strategy.
	wantScores := len(debugger.Strategies())
	for _, o := range rep.Outcomes {
		if o.Status == campaign.StatusKilled && len(o.Strategies) > 0 && len(o.Strategies) != wantScores {
			t.Errorf("mutant %d: %d strategy scores, want %d", o.MutantID, len(o.Strategies), wantScores)
		}
		for _, s := range o.Strategies {
			if s.Correct && s.Localized != o.Unit {
				t.Errorf("mutant %d marked correct but localized %q != unit %q", o.MutantID, s.Localized, o.Unit)
			}
		}
	}
	// The reference oracle must localize at least one fault correctly
	// per strategy on this simple subject. Queries answered out of the
	// harvested call/assertion databases don't reach the oracle, so the
	// sum of all answer sources is what must be nonzero.
	for name, st := range rep.ByStrategy {
		if st.Localized == 0 {
			t.Errorf("strategy %s never localized the injected fault", name)
		}
		if st.Questions == 0 && st.ByTests == 0 && st.ByAssertions == 0 {
			t.Errorf("strategy %s answered zero queries over %d sessions", name, st.Sessions)
		}
	}
	// This subject is simple enough that the reference-run harvest must
	// have answered at least some queries without the oracle.
	var harvested int
	for _, st := range rep.ByStrategy {
		harvested += st.ByTests + st.ByAssertions
	}
	if harvested == 0 {
		t.Error("harvested call/assertion databases never answered a query")
	}
}

// deadGuardSubject keeps a debug branch behind a constant-false guard:
// every mutant planted inside that branch is provably equivalent, while
// mutants in live code must still be executed and killed as usual.
const deadGuardSubject = `
program guarded;
var x, debug: integer;
begin
  debug := 0;
  x := 3;
  if debug > 0 then begin
    x := x + 7;
    writeln(x);
  end;
  writeln(x);
end.
`

// TestCampaignEquivalentTriage checks that static triage pulls
// dead-branch mutants out of the execution pool, reports them with
// their own status, and keeps them out of the kill rate.
func TestCampaignEquivalentTriage(t *testing.T) {
	rep := small(t, campaign.Config{
		Subjects: []campaign.Subject{{Name: "guarded", Source: deadGuardSubject}},
		Seed:     7,
		Fuel:     20_000,
		Timeout:  time.Minute,
	})
	if rep.Equivalent == 0 {
		t.Fatal("no mutants triaged as equivalent in the dead debug branch")
	}
	if rep.Killed == 0 {
		t.Error("live-code mutants should still be killed")
	}
	if got := rep.Killed + rep.Survived + rep.Timeout + rep.Stillborn + rep.Panics + rep.Equivalent; got != rep.Mutants {
		t.Errorf("status totals %d != mutants %d", got, rep.Mutants)
	}
	for _, o := range rep.Outcomes {
		if o.Status != campaign.StatusEquivalent {
			continue
		}
		if len(o.Strategies) != 0 {
			t.Errorf("mutant %d: equivalent mutants must not be debugged", o.MutantID)
		}
		if !strings.HasPrefix(o.Detail, "static triage:") {
			t.Errorf("mutant %d: detail %q does not name the triage rule", o.MutantID, o.Detail)
		}
	}
	// Kill rate only ranges over executed, decided mutants.
	if den := rep.Killed + rep.Survived; den > 0 {
		want := float64(rep.Killed) / float64(den)
		if got := rep.KillRate(); got != want {
			t.Errorf("KillRate() = %v, want %v", got, want)
		}
	}
	var equivOps int
	for _, op := range rep.ByOperator {
		equivOps += op.Equivalent
	}
	if equivOps != rep.Equivalent {
		t.Errorf("per-operator equivalent counts sum to %d, want %d", equivOps, rep.Equivalent)
	}
}

// TestCampaignDeterministic pins that two runs with one seed agree on
// every verdict (timing aside), on the subject errors and on the
// per-subject log lines, regardless of how many workers prepare the
// subjects and evaluate the mutants.
func TestCampaignDeterministic(t *testing.T) {
	run := func(workers int) (*campaign.Report, []string) {
		var logs []string
		rep := small(t, campaign.Config{
			Subjects: []campaign.Subject{
				{Name: "looper", Source: loopSubject},
				{Name: "broken", Source: "program broken; begin x := end."},
				{Name: "guarded", Source: deadGuardSubject},
			},
			Seed:    42,
			Budget:  16,
			Fuel:    20_000,
			Timeout: time.Minute,
			Workers: workers,
			Logf:    func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
		})
		for i := range rep.Outcomes {
			rep.Outcomes[i].ElapsedMS = 0
		}
		return rep, logs
	}
	a, aLogs := run(1)
	b, bLogs := run(4)
	if len(a.SubjectErrors) != 1 || !strings.HasPrefix(a.SubjectErrors[0], "broken: ") {
		t.Errorf("subject errors = %q, want one for broken", a.SubjectErrors)
	}
	if !reflect.DeepEqual(a.SubjectErrors, b.SubjectErrors) {
		t.Errorf("subject errors differ: %q vs %q", a.SubjectErrors, b.SubjectErrors)
	}
	if len(aLogs) != 2 || !reflect.DeepEqual(aLogs, bLogs) {
		t.Errorf("log lines differ or miss a subject:\n%q\nvs\n%q", aLogs, bLogs)
	}
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(a.Outcomes), len(b.Outcomes))
	}
	subjects := make(map[string]bool)
	for i := range a.Outcomes {
		subjects[a.Outcomes[i].Subject] = true
		if !reflect.DeepEqual(a.Outcomes[i], b.Outcomes[i]) {
			t.Errorf("outcome %d differs:\n%+v\nvs\n%+v", i, a.Outcomes[i], b.Outcomes[i])
		}
	}
	if !subjects["looper"] || !subjects["guarded"] {
		t.Errorf("outcomes cover subjects %v, want looper and guarded", subjects)
	}
}

// TestCampaignBackendParity: both engines classify every mutant by an
// untraced run, and only killed mutants are traced, always on the
// interpreter. The same seeded campaign must therefore produce identical
// outcomes (timing aside) on either backend: verdicts, localization
// results, and Details, which carry timeout step counts and crash
// messages. This is the campaign-level face of the engines' budget
// parity.
func TestCampaignBackendParity(t *testing.T) {
	cfg := campaign.Config{
		Subjects: []campaign.Subject{{Name: "looper", Source: loopSubject}},
		Seed:     42,
		Fuel:     20_000,
		Timeout:  time.Minute,
	}
	vmCfg := cfg
	vmCfg.Backend = "vm"
	a, b := small(t, cfg), small(t, vmCfg)
	if b.Backend != "vm" {
		t.Fatalf("report backend = %q, want vm", b.Backend)
	}
	if a.Killed == 0 || a.Survived == 0 || a.Timeout == 0 {
		t.Fatalf("campaign lacks a fate: %d killed, %d survived, %d timeout", a.Killed, a.Survived, a.Timeout)
	}
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(a.Outcomes), len(b.Outcomes))
	}
	for i := range a.Outcomes {
		x, y := a.Outcomes[i], b.Outcomes[i]
		x.ElapsedMS, y.ElapsedMS = 0, 0
		if !reflect.DeepEqual(x, y) {
			t.Errorf("mutant %d differs across backends:\ninterp %+v\nvm     %+v", x.MutantID, x, y)
		}
	}
	if _, err := campaign.Run(campaign.Config{Backend: "jit"}); err == nil {
		t.Fatal("unknown backend should fail fast")
	}
}

// TestOnlyKilledMutantsTraced: survivors and timeouts are classified
// by the untraced run alone; the campaign.traced counter moves once per
// killed mutant, on both backends.
func TestOnlyKilledMutantsTraced(t *testing.T) {
	for _, be := range []string{"interp", "vm"} {
		reg := obs.NewRegistry()
		rep := small(t, campaign.Config{
			Subjects: []campaign.Subject{{Name: "looper", Source: loopSubject}},
			Seed:     1,
			Fuel:     20_000,
			Timeout:  time.Minute,
			Backend:  be,
			Metrics:  reg,
		})
		if rep.Killed == 0 || rep.Survived == 0 || rep.Timeout == 0 {
			t.Fatalf("%s: campaign lacks a fate: %d killed, %d survived, %d timeout", be, rep.Killed, rep.Survived, rep.Timeout)
		}
		evaluated := rep.Mutants - rep.Equivalent
		traced := reg.Counter("campaign.traced").Value()
		if traced != int64(rep.Killed) || traced >= int64(evaluated) {
			t.Errorf("%s: traced %d mutants, want the %d killed of %d evaluated", be, traced, rep.Killed, evaluated)
		}
	}
}

// TestElapsedRecorded: an evaluated mutant reports its own evaluation
// time. A planted infinite loop under a deep call-depth budget runs
// 120,000 statements before it is stopped, which takes well over a
// millisecond.
func TestElapsedRecorded(t *testing.T) {
	rep := small(t, campaign.Config{
		Subjects: []campaign.Subject{{Name: "looper", Source: loopSubject}},
		Seed:     1,
		Fuel:     1_000_000,
		MaxDepth: 20_000,
		Timeout:  time.Minute,
	})
	if rep.Timeout == 0 {
		t.Fatal("no timeout mutants")
	}
	for _, o := range rep.Outcomes {
		if o.Status == campaign.StatusTimeout && o.ElapsedMS <= 0 {
			t.Errorf("timeout mutant %d: elapsed_ms = %d, want > 0 (%s)", o.MutantID, o.ElapsedMS, o.Detail)
		}
	}
}

// TestCampaignBudgetAndOps: budget caps the evaluated set, ops filter
// restricts operators, and metrics land in the registry.
func TestCampaignBudgetAndOps(t *testing.T) {
	reg := obs.NewRegistry()
	rep := small(t, campaign.Config{
		Subjects:   []campaign.Subject{{Name: "looper", Source: loopSubject}},
		Ops:        []mutate.Op{mutate.RelFlip, mutate.ConstOffByOne},
		Seed:       5,
		Budget:     6,
		Fuel:       20_000,
		Timeout:    time.Minute,
		Strategies: []debugger.Strategy{debugger.TopDown},
		Metrics:    reg,
	})
	if rep.Mutants != 6 {
		t.Errorf("evaluated %d mutants, want budget 6", rep.Mutants)
	}
	if rep.Enumerated <= 6 {
		t.Errorf("enumerated %d, want more than budget", rep.Enumerated)
	}
	for op := range rep.ByOperator {
		if op != string(mutate.RelFlip) && op != string(mutate.ConstOffByOne) {
			t.Errorf("unexpected operator %s in filtered campaign", op)
		}
	}
	for _, o := range rep.Outcomes {
		for _, s := range o.Strategies {
			if s.Strategy != "top-down" {
				t.Errorf("unexpected strategy %s", s.Strategy)
			}
		}
	}
	if got := reg.Counter("campaign.mutants").Value(); got != 6 {
		t.Errorf("campaign.mutants metric = %d, want 6", got)
	}
}

// TestTriageEquivalentsSurviveExecution brute-force checks the triage
// verdicts over the full default subject set: every mutant marked
// equivalent must produce exactly the reference output when actually
// executed. A divergence here means the value analysis or a triage
// rule is unsound.
func TestTriageEquivalentsSurviveExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force triage validation is not short")
	}
	run := func(name, source, input string) (string, error) {
		sys, err := gadt.Load(name+".pas", source)
		if err != nil {
			return "", err
		}
		r, err := sys.TraceLimited(input, 60_000, 1000)
		if err != nil {
			return "", err
		}
		if r.RunErr != nil {
			return "", r.RunErr
		}
		return r.Output, nil
	}
	checked := 0
	for _, s := range campaign.DefaultSubjects() {
		want, err := run(s.Name, s.Source, s.Input)
		if err != nil {
			continue // campaign skips such subjects too
		}
		en, err := mutate.EnumerateProgram(s.Name+".pas", s.Source, mutate.Config{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		mutate.TriageEquivalent(en)
		for _, m := range en.Mutants {
			if !m.Equivalent {
				continue
			}
			checked++
			got, err := run(s.Name, m.Source, s.Input)
			if err != nil {
				t.Errorf("%s mutant %d (%s; %s): equivalent mutant failed: %v",
					s.Name, m.ID, m.Description, m.EquivReason, err)
				continue
			}
			if got != want {
				t.Errorf("%s mutant %d (%s; %s): output diverged despite equivalence proof",
					s.Name, m.ID, m.Description, m.EquivReason)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no equivalent mutants found across the default subjects")
	}
}

// TestCampaignCorpusSmoke runs a tiny budget over the full default
// subject set — the same shape `pmut` and CI use — and checks the JSON
// report round-trips.
func TestCampaignCorpusSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign smoke is not short")
	}
	rep := small(t, campaign.Config{Seed: 1, Budget: 20, Timeout: time.Minute})
	// Statically triaged equivalents bypass the budget (their verdict is
	// free); the budget caps the executed remainder.
	if got := rep.Mutants - rep.Equivalent; got != 20 {
		t.Fatalf("executed %d mutants, want budget 20", got)
	}
	if rep.Enumerated < 200 {
		t.Errorf("default subjects enumerate only %d sites, want >= 200 for make mutate", rep.Enumerated)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back campaign.Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Mutants != rep.Mutants || len(back.Outcomes) != len(rep.Outcomes) {
		t.Errorf("round-trip mismatch: %d/%d vs %d/%d", back.Mutants, len(back.Outcomes), rep.Mutants, len(rep.Outcomes))
	}
	if !strings.Contains(buf.String(), "by_strategy") {
		t.Error("report JSON missing by_strategy")
	}
}

// TestSharedOracleMatchesFreshOracle pins the per-subject oracle: the
// campaign builds one intended-semantics oracle per subject from its
// reference run and shares it across workers, and every killed
// mutant's score must equal a session debugged with a freshly built
// gadt.IntendedOracleLimited. Harvest is off so every query reaches the
// oracle. One subject is globals-style, so the transformed reference
// has lifted parameters.
func TestSharedOracleMatchesFreshOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("per-mutant re-debugging is not short")
	}
	var subjects []campaign.Subject
	for _, s := range campaign.DefaultSubjects() {
		if s.Name == "sqrtest" || strings.HasPrefix(s.Name, "synth(d=2,f=2,globals") {
			subjects = append(subjects, s)
		}
	}
	if len(subjects) != 2 {
		t.Fatalf("found %d of 2 subjects", len(subjects))
	}
	const fuel = 60_000
	cfg := campaign.Config{Subjects: subjects, Seed: 1, Workers: 4, Fuel: fuel, NoHarvest: true, Timeout: time.Minute}
	rep := small(t, cfg)

	mutants := make(map[string]map[int]*mutate.Mutant)
	for _, s := range subjects {
		en, err := mutate.EnumerateProgram(s.Name+".pas", s.Source, mutate.Config{})
		if err != nil {
			t.Fatal(err)
		}
		mutants[s.Name] = make(map[int]*mutate.Mutant)
		for _, m := range en.Mutants {
			mutants[s.Name][m.ID] = m
		}
		ref, err := gadt.Load(s.Name+".pas", s.Source)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ref.Transform()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(s.Name, "globals") && res.Stats().GlobalsLifted == 0 {
			t.Errorf("%s: transform lifted no globals", s.Name)
		}
	}

	killed := make(map[string]int)
	for _, o := range rep.Outcomes {
		if o.Status != campaign.StatusKilled || len(o.Strategies) == 0 {
			continue
		}
		killed[o.Subject]++
		var subject campaign.Subject
		for _, s := range subjects {
			if s.Name == o.Subject {
				subject = s
			}
		}
		m := mutants[o.Subject][o.MutantID]
		sys, err := gadt.Load(subject.Name+".pas", m.Source)
		if err != nil {
			t.Fatal(err)
		}
		run, err := sys.TraceLimited(subject.Input, fuel, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for i, strat := range debugger.Strategies() {
			oracle, err := gadt.IntendedOracleLimited(subject.Source, fuel)
			if err != nil {
				t.Fatal(err)
			}
			want := campaign.StrategyScore{Strategy: strat.String()}
			out, err := run.Debug(oracle, gadt.DebugConfig{Strategy: strat, Slicing: true, MaxQuestions: 2000})
			if out != nil {
				want.Questions = out.Questions
			}
			if err != nil {
				want.Error = err.Error()
			} else if out.Localized() {
				want.Localized = run.System.Transformed.OriginRoutine(out.Bug.Unit.Name)
				want.Correct = want.Localized == m.Unit
			}
			if got := o.Strategies[i]; got != want {
				t.Errorf("%s mutant %d (%s): shared oracle %+v, fresh oracle %+v",
					o.Subject, o.MutantID, m.Description, got, want)
			}
		}
	}
	for _, s := range subjects {
		if killed[s.Name] == 0 {
			t.Errorf("%s: no killed mutants were debugged", s.Name)
		}
	}
}
