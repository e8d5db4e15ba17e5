package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"gadt/internal/campaign"
	"gadt/internal/debugger"
	"gadt/internal/gadt"
	"gadt/internal/mutate"
	"gadt/internal/obs"
	"gadt/internal/serve"
)

// The serve workload replays recorded debugging sessions against an
// in-process gadt-serve on a loopback listener. Setup samples killed
// mutants of the default subjects and records, for each mutant
// and each of the four strategies, the session journal that the
// intended-semantics oracle of the unmutated subject produces. A pass
// (round) starts a fresh server, so its content-addressed cache starts
// cold, and an open-loop generator starts the sessions in a seeded
// shuffled order at a fixed arrival rate; each session replays its
// journal back to back, and all sessions share at most nproc
// connections. The arrival rate is set so that the sample offers a
// fixed request rate, whatever its mean number of answers per session.
const (
	serveMutants = 56
	// serveSampleSeed draws the mutant sample; --seed draws the arrival
	// order. Session length is heavy-tailed (a few sessions ask hundreds
	// of questions, most fewer than five), so samples drawn per seed
	// would differ in load by more than a factor of two.
	serveSampleSeed = 1
	// serveRate is the offered request rate: a quarter to a third of
	// the closed-loop capacity measured on a 2-CPU host (2 connections,
	// nproc sessions at a time), which ranged from 5,500 to 12,500
	// requests/s as the host's load changed. At half the capacity the
	// server fell behind whenever the host slowed.
	serveRate  = 1600.0
	serveFuel  = 2_000_000
	serveDepth = 5_000
	serveFile  = "program.pas"
)

// recording is one recorded session: its create request, the journal's
// answer lines, and the outcome the served session must reproduce.
type recording struct {
	create  []byte
	entries []debugger.JournalEntry
	lines   [][]byte
	// state is the terminal session state the recording implies:
	// localized (on unit), inconclusive, or failed when the debugger
	// returned an error.
	state     string
	unit      string
	blamed    bool // the localized unit is the mutated one
	questions int
}

type serveWorkload struct {
	o options
	// sessionRate is the session arrival rate that offers serveRate.
	sessionRate float64
	sessions    []*recording
	progs       []program // the recorded mutants
	refs        []string  // each recorded mutant's subject source
	subjects    []campaign.Subject

	mu      sync.Mutex // guards the tallies below, written by client workers
	checks  checkResult
	ttfq    []float64
	answers []float64
	late    []float64
	cache   map[string]int64 // summed serve.cache.{hits,misses} series
}

func (w *serveWorkload) setup(o options) error {
	w.o = o
	w.cache = make(map[string]int64)
	w.subjects = campaign.DefaultSubjects()
	type candidate struct {
		s campaign.Subject
		m *mutate.Mutant
	}
	// Candidates are dealt round-robin over the subjects, each subject's
	// mutants in an order drawn from serveSampleSeed.
	rng := rand.New(rand.NewSource(serveSampleSeed))
	var perSubject [][]candidate
	for _, s := range w.subjects {
		en, err := mutate.EnumerateProgram(s.Name+".pas", s.Source, mutate.Config{})
		if err != nil {
			return err
		}
		mutate.TriageEquivalent(en)
		var cs []candidate
		for _, m := range en.Mutants {
			if !m.Equivalent {
				cs = append(cs, candidate{s, m})
			}
		}
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		perSubject = append(perSubject, cs)
	}
	var cands []candidate
	for k, dealt := 0, true; dealt; k++ {
		dealt = false
		for _, cs := range perSubject {
			if k < len(cs) {
				cands = append(cands, cs[k])
				dealt = true
			}
		}
	}

	want := serveMutants
	if o.tiny {
		want = 2
	}
	refOut := make(map[string]string)
	oracles := make(map[string]debugger.Oracle)
	for _, c := range cands {
		if len(w.progs) == want {
			break
		}
		if _, ok := oracles[c.s.Name]; !ok {
			out, err := tracedOutput(c.s.Source, c.s.Input)
			if err != nil {
				return fmt.Errorf("reference run of %s: %w", c.s.Name, err)
			}
			refOut[c.s.Name] = out
			if oracles[c.s.Name], err = gadt.IntendedOracle(c.s.Source); err != nil {
				return err
			}
		}
		recs, err := record(c.s, c.m, refOut[c.s.Name], oracles[c.s.Name])
		if err != nil {
			return err
		}
		if recs != nil {
			w.sessions = append(w.sessions, recs...)
			w.progs = append(w.progs, program{serveFile, c.m.Source, c.s.Input})
			w.refs = append(w.refs, c.s.Source)
		}
	}
	if len(w.progs) < want {
		return fmt.Errorf("only %d killed mutants to record", len(w.progs))
	}
	requests := 0
	for _, r := range w.sessions {
		requests += 1 + len(r.entries)
	}
	w.sessionRate = serveRate * float64(len(w.sessions)) / float64(requests)
	return nil
}

func tracedOutput(src, input string) (string, error) {
	sys, err := gadt.Load(serveFile, src)
	if err != nil {
		return "", err
	}
	run, err := sys.TraceLimited(input, pmutFuel, pmutDepth)
	if err != nil {
		return "", err
	}
	return run.Output, run.RunErr
}

// record debugs one mutant under every strategy with the oracle,
// exactly as the server would (transformation, lint hints and slicing
// on), and returns the recorded sessions; nil when the mutant is not a
// killed mutant the campaign would debug.
func record(s campaign.Subject, m *mutate.Mutant, refOut string, oracle debugger.Oracle) ([]*recording, error) {
	sys, err := gadt.Load(serveFile, m.Source)
	if err != nil {
		return nil, nil // stillborn
	}
	hints := sys.LintHints()
	// Killed means killed under the campaign's budgets; the served trace
	// runs under the server's larger ones and ends the same way.
	run, err := sys.TraceLimited(s.Input, pmutFuel, pmutDepth)
	if err != nil || budgetExhausted(run.RunErr) || run.Tree.Size() > pmutTreeCap ||
		(run.RunErr == nil && run.Output == refOut) {
		return nil, nil
	}
	var recs []*recording
	for _, strat := range debugger.Strategies() {
		var buf bytes.Buffer
		// A session that fails here fails when served too; it stays in
		// the sample and counts as a failed operation.
		out, derr := run.Debug(&debugger.JournalingOracle{Inner: oracle, Journal: debugger.NewJournalWriter(&buf)},
			gadt.DebugConfig{Strategy: strat, Slicing: true, Hints: hints})
		create, err := json.Marshal(serve.CreateRequest{
			Program: m.Source, File: serveFile, Input: s.Input, Strategy: strat.String(),
		})
		if err != nil {
			return nil, err
		}
		rec := &recording{create: create, state: "inconclusive"}
		if out != nil {
			rec.questions = out.Questions
		}
		for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var e debugger.JournalEntry
			if err := json.Unmarshal(line, &e); err != nil {
				return nil, err
			}
			rec.entries = append(rec.entries, e)
			rec.lines = append(rec.lines, line)
		}
		switch {
		case derr != nil:
			rec.state = "failed"
		case out.Localized():
			rec.state, rec.unit = "localized", out.Bug.Unit.Name
			rec.blamed = sys.Transformed.OriginRoutine(rec.unit) == m.Unit
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// passes is the number of rounds; a round starts every recorded
// session once, so it lasts len(sessions)/sessionRate seconds.
func (w *serveWorkload) passes(o options) int {
	return max(1, int(float64(o.seconds)*w.sessionRate/float64(len(w.sessions))+0.5))
}

// pass runs one round against a fresh server; its items are requests.
// item_p90_ms is taken over the session creates (time to first question,
// from when the session was due) rather than over all requests: the
// share of creates among requests follows the sample's session lengths,
// and creates are the requests whose tail the front end and its cache
// set. A quarter of the creates miss the cache, so the 90th percentile
// falls among the misses. The server always has a registry, as
// gadt-serve does; reg is unused.
func (w *serveWorkload) pass(i int, _ *obs.Registry) (int, latencies, error) {
	reg := obs.NewRegistry()
	srv := serve.NewServer(reg, serve.Options{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, latencies{}, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		<-served
	}()

	conns := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	cl := &client{base: "http://" + ln.Addr().String(), http: &http.Client{Transport: tr, Timeout: 60 * time.Second}}

	order := rand.New(rand.NewSource(w.o.seed*7919 + int64(i))).Perm(len(w.sessions))

	// Each session is its own client goroutine, started when it is due;
	// requests of concurrent sessions share the conns connections.
	var wg sync.WaitGroup
	var items int
	var lat latencies
	start := time.Now().Add(2 * time.Millisecond)
	for k, idx := range order {
		due := start.Add(time.Duration(float64(k) / w.sessionRate * float64(time.Second)))
		wg.Add(1)
		go func(rec *recording, due time.Time) {
			defer wg.Done()
			time.Sleep(time.Until(due))
			late := time.Since(due)
			ms := w.replay(cl, rec, due)
			w.mu.Lock()
			w.late = append(w.late, float64(late.Microseconds())/1e3)
			items += len(ms)
			lat.all = append(lat.all, ms...)
			if len(ms) > 0 {
				lat.tail = append(lat.tail, ms[0])
			}
			w.mu.Unlock()
		}(w.sessions[idx], due)
	}
	wg.Wait()

	snap := reg.Snapshot()
	w.mu.Lock()
	for _, layer := range []string{"artifact", "trace"} {
		w.cache["hits."+layer] += snap.Counters["serve.cache.hits{layer="+layer+"}"]
		w.cache["misses."+layer] += snap.Counters["serve.cache.misses{layer="+layer+"}"]
	}
	w.mu.Unlock()
	return items, lat, nil
}

// replay runs one recorded session and checks it; it returns the
// latency of each request in milliseconds, the create measured from
// when the session was due.
func (w *serveWorkload) replay(cl *client, rec *recording, due time.Time) []float64 {
	var lat []float64
	outcome := func(failed, wrong bool) []float64 {
		w.mu.Lock()
		w.checks.attempted++
		if failed {
			w.checks.fail(wrong)
		}
		w.mu.Unlock()
		return lat
	}
	resp, ok := cl.do("/v1/sessions", rec.create, http.StatusCreated)
	lat = append(lat, ms(time.Since(due)))
	if !ok {
		return outcome(true, false)
	}
	w.mu.Lock()
	w.ttfq = append(w.ttfq, lat[0])
	w.mu.Unlock()
	for k, e := range rec.entries {
		q := resp.Question
		if resp.State != "waiting" || q == nil || q.Seq != e.Seq || q.Node != e.Node || q.Unit != e.Unit || q.Query != e.Query {
			return outcome(true, true) // diverged from the journal
		}
		sent := time.Now()
		resp, ok = cl.do("/v1/sessions/"+resp.ID+"/answer", rec.lines[k], http.StatusOK)
		d := ms(time.Since(sent))
		lat = append(lat, d)
		if !ok {
			return outcome(true, false)
		}
		w.mu.Lock()
		w.answers = append(w.answers, d)
		w.mu.Unlock()
	}
	// The session must end as recorded, with the recorded unit and
	// number of questions. It passes only if that end is localized: a
	// session that ends inconclusive or in a debugger error reproduces
	// its recording but fails to find the bug.
	switch {
	case resp.State != rec.state:
		return outcome(true, true)
	case rec.state == "failed":
		return outcome(true, false)
	case resp.Diagnosis == nil || resp.Diagnosis.Unit != rec.unit || resp.Diagnosis.Questions != rec.questions:
		return outcome(true, true)
	case rec.state != "localized":
		return outcome(true, false)
	}
	return outcome(false, false)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// client posts JSON bodies and decodes session responses.
type client struct {
	base string
	http *http.Client
}

// do posts body to path and reports whether the reply had the wanted
// status and decoded as a session.
func (c *client) do(path string, body []byte, want int) (*serve.SessionResponse, bool) {
	res, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, false
	}
	data, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil || res.StatusCode != want {
		return nil, false
	}
	var sr serve.SessionResponse
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&sr); err != nil {
		return nil, false
	}
	return &sr, true
}

func (w *serveWorkload) check() checkResult {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.checks
}

func (w *serveWorkload) layerMetrics(m map[string]float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, layer := range []string{"artifact", "trace"} {
		hits, misses := float64(w.cache["hits."+layer]), float64(w.cache["misses."+layer])
		m["serve.cache_hit_ratio."+layer] = share(hits, hits+misses)
	}
	m["serve.ttfq_p50_ms"] = quantile(w.ttfq, 0.50)
	m["serve.ttfq_p99_ms"] = quantile(w.ttfq, 0.99)
	m["serve.answer_p50_ms"] = quantile(w.answers, 0.50)
	m["serve.answer_p99_ms"] = quantile(w.answers, 0.99)
	m["loadgen.late_p99_ms"] = quantile(w.late, 0.99)
	var questions, blamed int
	for _, r := range w.sessions {
		questions += r.questions
		if r.blamed {
			blamed++
		}
	}
	m["debugger.questions_per_session"] = share(float64(questions), float64(len(w.sessions)))
	m["debugger.correct_blame_share"] = share(float64(blamed), float64(len(w.sessions)))
}

func (w *serveWorkload) probe(p *prober) {
	probeFrontEnd(p, w.progs)
	probeLint(p, w.progs)
	probeTrace(p, w.progs, serveFuel, serveDepth)
	subjects := w.subjects
	probeMutation(p, subjects)
	p.time("oracle_build", len(subjects), func(i int) func() {
		src := subjects[i].Source
		return func() { _, _ = gadt.IntendedOracle(src) }
	})
	strategies := debugger.Strategies()
	p.time("debug", len(w.progs), func(i int) func() {
		pr := w.progs[i]
		ref := w.refs[i]
		sys, err := gadt.Load(serveFile, pr.source)
		if err != nil {
			return nil
		}
		hints := sys.LintHints()
		run, err := sys.TraceLimited(pr.input, serveFuel, serveDepth)
		if err != nil {
			return nil
		}
		oracle, err := gadt.IntendedOracle(ref)
		if err != nil {
			return nil
		}
		cfg := gadt.DebugConfig{Strategy: strategies[i%len(strategies)], Slicing: true, Hints: hints}
		return func() { _, _ = run.Debug(oracle, cfg) }
	})
}
