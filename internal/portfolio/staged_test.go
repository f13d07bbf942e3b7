package portfolio

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/maxsat"
	"mpmcs4fta/internal/obs"
)

// smallOptimum is smallInstance's optimal answer (x1 = x2 = true,
// x3 = false, cost 5).
func smallOptimum() maxsat.Result {
	return maxsat.Result{Status: maxsat.Optimal, Model: []bool{false, true, true, false}, Cost: 5, LowerBound: 5}
}

// fixedSolver returns a preset result and error at once.
type fixedSolver struct {
	res maxsat.Result
	err error
}

func (fixedSolver) Name() string { return "fixed" }

func (f fixedSolver) Solve(context.Context, *cnf.WCNF) (maxsat.Result, error) {
	return f.res, f.err
}

// probeSolver records when its Solve is called, and the shared bounds
// it sees at that moment, then returns the optimum at once.
type probeSolver struct {
	mu   sync.Mutex
	seen probeSeen
}

// probeSeen is what a probeSolver recorded.
type probeSeen struct {
	calls    int
	startAt  time.Time
	upper    int64
	upperOK  bool
	provenLB int64
}

var _ maxsat.ProgressSolver = (*probeSolver)(nil)

func (p *probeSolver) Name() string { return "probe" }

func (p *probeSolver) Solve(ctx context.Context, inst *cnf.WCNF) (maxsat.Result, error) {
	return p.SolveWithProgress(ctx, inst, nil)
}

func (p *probeSolver) SolveWithProgress(_ context.Context, _ *cnf.WCNF, prog maxsat.Progress) (maxsat.Result, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seen.calls++
	p.seen.startAt = time.Now()
	if prog != nil {
		p.seen.upper, p.seen.upperOK = prog.BestKnown()
		p.seen.provenLB = prog.ProvenLower()
	}
	return smallOptimum(), nil
}

func (p *probeSolver) snapshot() probeSeen {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seen
}

// countingSolver counts its Solve calls and blocks until cancelled.
type countingSolver struct{ calls atomic.Int64 }

func (c *countingSolver) Name() string { return "counting" }

func (c *countingSolver) Solve(ctx context.Context, _ *cnf.WCNF) (maxsat.Result, error) {
	c.calls.Add(1)
	<-ctx.Done()
	return maxsat.Result{}, ctx.Err()
}

// tracedRun is one Solve call with its engine spans and EngineStarted
// events counted per engine name.
type tracedRun struct {
	res     maxsat.Result
	report  Report
	spans   map[string]int
	started map[string]int
}

// tracedSolve runs Solve with a span tracer and an event bus attached.
func tracedSolve(ctx context.Context, engines []Engine) (tracedRun, error) {
	tracer := obs.NewJSONTracer()
	root := tracer.StartSpan("solve")
	bus := obs.NewEventBus()
	ctx = obs.ContextWithBus(obs.ContextWithSpan(ctx, root), bus)
	res, report, err := Solve(ctx, smallInstance(), engines)
	root.End()

	run := tracedRun{res: res, report: report, spans: make(map[string]int), started: make(map[string]int)}
	for _, rec := range tracer.Roots() {
		for _, child := range rec.Children {
			run.spans[strings.TrimPrefix(child.Name, "engine:")]++
		}
	}
	for _, ev := range bus.Replay() {
		if s, ok := ev.Data.(obs.EngineStarted); ok {
			run.started[s.Engine]++
		}
	}
	return run, err
}

// TestStagedLeadWinsAlone: a lead that wins inside its slice ends the
// race before any sibling starts. The siblings' Solve is never called,
// they are reported as cancelled and never started, and they leave no
// span and no lifecycle event.
func TestStagedLeadWinsAlone(t *testing.T) {
	sibling := &countingSolver{}
	engines := []Engine{
		{Name: "lead", Solver: fixedSolver{res: smallOptimum()}},
		{Name: "sib-1", Solver: sibling},
		{Name: "sib-2", Solver: sibling},
	}
	run, err := tracedSolve(context.Background(), engines)
	if err != nil {
		t.Fatal(err)
	}
	res, report, spans, started := run.res, run.report, run.spans, run.started
	if res.Status != maxsat.Optimal || res.Cost != 5 || report.Winner != "lead" {
		t.Fatalf("got %v cost %d winner %q, want the lead's OPTIMAL 5", res.Status, res.Cost, report.Winner)
	}
	if n := sibling.calls.Load(); n != 0 {
		t.Errorf("siblings' Solve called %d times after the lead won", n)
	}
	if lead := report.Engines[0]; !lead.Completed || lead.Cancelled {
		t.Errorf("lead report %+v, want completed", lead)
	}
	for _, rep := range report.Engines[1:] {
		if !rep.Cancelled || rep.Completed || rep.Elapsed != 0 || !strings.Contains(rep.Err, "never started") {
			t.Errorf("sibling %s report %+v, want cancelled, never started, Elapsed 0", rep.Name, rep)
		}
	}
	if spans["lead"] != 1 || len(spans) != 1 {
		t.Errorf("engine spans %v, want only the lead's", spans)
	}
	if started["lead"] != 1 || len(started) != 1 {
		t.Errorf("EngineStarted events %v, want only the lead's", started)
	}
}

// TestStagedLeadStallsSiblingsJoin: a lead that blocks until cancelled
// is joined by its siblings once the slice ends; one of them wins and
// the lead is reported cancelled. Every started engine has a span.
func TestStagedLeadStallsSiblingsJoin(t *testing.T) {
	engines := []Engine{
		{Name: "lead", Solver: slowSolver{}},
		{Name: "stall", Solver: &countingSolver{}},
		{Name: "fast", Solver: fixedSolver{res: smallOptimum()}},
	}
	run, err := tracedSolve(context.Background(), engines)
	if err != nil {
		t.Fatal(err)
	}
	res, report, spans, started := run.res, run.report, run.spans, run.started
	if report.Winner != "fast" || res.Cost != 5 {
		t.Fatalf("winner %q cost %d, want fast 5", report.Winner, res.Cost)
	}
	if report.Elapsed < leadSlice {
		t.Errorf("race won after %v, before the lead's %v slice ended", report.Elapsed, leadSlice)
	}
	lead := report.Engines[0]
	if !lead.Cancelled || !strings.Contains(lead.Err, "sibling engine won") || strings.Contains(lead.Err, "never started") {
		t.Errorf("lead report %+v, want cancelled by the sibling's win", lead)
	}
	for _, e := range engines {
		if spans[e.Name] != 1 || started[e.Name] != 1 {
			t.Errorf("engine %s: %d spans, %d EngineStarted events, want 1 each", e.Name, spans[e.Name], started[e.Name])
		}
	}
}

// TestStagedLeadFailsEarly: a lead that returns at once without a
// definitive answer brings the siblings in without waiting out the
// slice.
func TestStagedLeadFailsEarly(t *testing.T) {
	for name, lead := range map[string]maxsat.Solver{
		"unknown": fixedSolver{res: maxsat.Result{Status: maxsat.Unknown}},
		"error":   fixedSolver{err: errors.New("boom")},
	} {
		t.Run(name, func(t *testing.T) {
			engines := []Engine{
				{Name: "lead", Solver: lead},
				{Name: "fast", Solver: fixedSolver{res: smallOptimum()}},
			}
			res, report, err := Solve(context.Background(), smallInstance(), engines)
			if err != nil {
				t.Fatal(err)
			}
			if report.Winner != "fast" || res.Cost != 5 {
				t.Fatalf("winner %q cost %d, want fast 5", report.Winner, res.Cost)
			}
			if report.Elapsed >= leadSlice {
				t.Errorf("siblings waited out the slice: race took %v", report.Elapsed)
			}
		})
	}
}

// TestStagedDeadlineShortensSlice: under a deadline shorter than twice
// the slice, the lead runs alone for half the time left, so the
// siblings still start before the deadline.
func TestStagedDeadlineShortensSlice(t *testing.T) {
	budget := leadSlice * 3 / 4
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	probe := &probeSolver{}
	engines := []Engine{
		{Name: "lead", Solver: slowSolver{}},
		{Name: "probe", Solver: probe},
	}
	begin := time.Now()
	res, report, err := Solve(ctx, smallInstance(), engines)
	if err != nil {
		t.Fatalf("sibling should have started and won inside the %v budget: %v", budget, err)
	}
	if report.Winner != "probe" || res.Cost != 5 {
		t.Fatalf("winner %q cost %d, want probe 5", report.Winner, res.Cost)
	}
	got := probe.snapshot()
	if got.calls != 1 {
		t.Fatalf("probe Solve called %d times, want 1", got.calls)
	}
	if at := got.startAt.Sub(begin); at >= budget {
		t.Errorf("sibling started %v after the call, not within the %v budget", at, budget)
	}
}

// TestStagedLateJoinerSeesLeadBounds: a sibling joining late attaches
// to the race's bound manager and starts from the incumbent and lower
// bound the lead has already published.
func TestStagedLateJoinerSeesLeadBounds(t *testing.T) {
	probe := &probeSolver{}
	engines := []Engine{
		{Name: "lead", Solver: &publishingSolver{name: "lead", cost: 7, model: []bool{false, true, true, true}, lower: 3}},
		{Name: "probe", Solver: probe},
	}
	_, report, err := Solve(context.Background(), smallInstance(), engines)
	if err != nil {
		t.Fatal(err)
	}
	if report.Winner != "probe" {
		t.Fatalf("winner %q, want probe", report.Winner)
	}
	got := probe.snapshot()
	if !got.upperOK || got.upper != 7 || got.provenLB != 3 {
		t.Errorf("late joiner saw incumbent %d (set %v), lower bound %d; want the lead's 7 and 3",
			got.upper, got.upperOK, got.provenLB)
	}
}
