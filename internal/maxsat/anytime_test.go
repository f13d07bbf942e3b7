package maxsat

import (
	"context"
	"errors"
	"testing"
	"time"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/sat"
)

// cancelProgress is a Progress that cancels a context on the first
// publication of the selected kind — a deterministic way to expire a
// deadline "mid-search", right after the engine finds its first
// incumbent (or proves its first lower bound).
type cancelProgress struct {
	cancel   context.CancelFunc
	onModel  bool
	onLower  bool
	models   int
	lowers   int
	lastCost int64
	lastLB   int64
}

func (p *cancelProgress) PublishModel(cost int64, model []bool) {
	p.models++
	p.lastCost = cost
	if p.onModel {
		p.cancel()
	}
}

func (p *cancelProgress) PublishLower(lb int64) {
	p.lowers++
	p.lastLB = lb
	if p.onLower {
		p.cancel()
	}
}

func (p *cancelProgress) BestKnown() (int64, bool) { return 0, false }
func (p *cancelProgress) ProvenLower() int64       { return 0 }

// vertexCoverWCNF encodes minimum vertex cover of a cycle C_n as WPMS:
// hard (u ∨ v) per edge, soft (¬v) of weight 1 per vertex. For odd n
// the optimum is (n+1)/2.
func vertexCoverWCNF(n int) *cnf.WCNF {
	var w cnf.WCNF
	w.NumVars = n
	for v := 1; v <= n; v++ {
		u := v%n + 1
		w.AddHard(cnf.Lit(v), cnf.Lit(u))
	}
	for v := 1; v <= n; v++ {
		w.AddSoft(1, -cnf.Lit(v))
	}
	return &w
}

// independentEdgesWCNF is n disjoint edges: hard (x_{2i−1} ∨ x_{2i}),
// soft (¬v) of weight 1 per vertex. Optimum n, but the branch-and-bound
// search tree below the first complete assignment is huge — ideal for
// interrupting mid-search.
func independentEdgesWCNF(n int) *cnf.WCNF {
	var w cnf.WCNF
	w.NumVars = 2 * n
	for i := 1; i <= n; i++ {
		w.AddHard(cnf.Lit(2*i-1), cnf.Lit(2*i))
	}
	for v := 1; v <= 2*n; v++ {
		w.AddSoft(1, -cnf.Lit(v))
	}
	return &w
}

// requireSoundFeasible asserts the anytime contract on a Feasible
// result: verified model, consistent cost, bounded gap.
func requireSoundFeasible(t *testing.T, inst *cnf.WCNF, res Result, optimum int64) {
	t.Helper()
	if res.Status != Feasible {
		t.Fatalf("status %v, want FEASIBLE", res.Status)
	}
	cost, err := inst.Cost(res.Model)
	if err != nil {
		t.Fatalf("incumbent model infeasible: %v", err)
	}
	if cost != res.Cost {
		t.Fatalf("reported cost %d, model costs %d", res.Cost, cost)
	}
	if res.Cost < optimum {
		t.Fatalf("anytime cost %d beats the optimum %d", res.Cost, optimum)
	}
	if res.LowerBound > optimum {
		t.Fatalf("lower bound %d exceeds the optimum %d", res.LowerBound, optimum)
	}
	if gap := res.Gap(); gap < 0 || gap != res.Cost-res.LowerBound {
		t.Fatalf("gap %d inconsistent with cost %d − lb %d", gap, res.Cost, res.LowerBound)
	}
}

// TestLinearSUKeepsIncumbentOnInterrupt is the regression test for the
// anytime bug: interrupting LinearSU after it found a model must return
// that model as FEASIBLE, not discard it behind an error.
func TestLinearSUKeepsIncumbentOnInterrupt(t *testing.T) {
	inst := vertexCoverWCNF(5) // optimum 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prog := &cancelProgress{cancel: cancel, onModel: true}
	res, err := (&LinearSU{}).SolveWithProgress(ctx, inst, prog)
	if err != nil {
		t.Fatalf("interrupted solve with incumbent returned error: %v", err)
	}
	if prog.models == 0 {
		t.Fatal("engine never published a model")
	}
	requireSoundFeasible(t, inst, res, 3)
}

// TestBranchBoundKeepsIncumbentOnInterrupt: same regression for the
// branch-and-bound engine, whose first complete assignment arrives long
// before the search tree is exhausted.
func TestBranchBoundKeepsIncumbentOnInterrupt(t *testing.T) {
	inst := independentEdgesWCNF(10) // optimum 10
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prog := &cancelProgress{cancel: cancel, onModel: true}
	res, err := (&BranchBound{}).SolveWithProgress(ctx, inst, prog)
	if err != nil {
		t.Fatalf("interrupted solve with incumbent returned error: %v", err)
	}
	if prog.models == 0 {
		t.Fatal("engine never published a model")
	}
	requireSoundFeasible(t, inst, res, 10)
}

// TestWMSU1ReportsLowerBoundOnInterrupt: interrupting WMSU1 before it
// holds any model must still surface the accumulated core payments as
// the proven lower bound, riding along with the interruption error.
func TestWMSU1ReportsLowerBoundOnInterrupt(t *testing.T) {
	inst := vertexCoverWCNF(5) // optimum 3: at least three cores
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prog := &cancelProgress{cancel: cancel, onLower: true}
	res, err := (&WMSU1{}).SolveWithProgress(ctx, inst, prog)
	if err == nil {
		t.Fatalf("want interruption error without a model, got status %v", res.Status)
	}
	if !errors.Is(err, sat.ErrInterrupted) {
		t.Fatalf("error does not wrap sat.ErrInterrupted: %v", err)
	}
	if res.Status != Unknown {
		t.Fatalf("status %v, want UNKNOWN", res.Status)
	}
	if res.LowerBound < 1 || res.LowerBound > 3 {
		t.Fatalf("lower bound %d outside (0, optimum]", res.LowerBound)
	}
	if res.LowerBound != prog.lastLB {
		t.Fatalf("returned lower bound %d differs from published %d", res.LowerBound, prog.lastLB)
	}
}

// TestWMSU1StratifiedKeepsIncumbentOnInterrupt: a stratified run's
// intermediate stratum model is a feasible incumbent and must survive
// interruption as a FEASIBLE answer.
func TestWMSU1StratifiedKeepsIncumbentOnInterrupt(t *testing.T) {
	// Hard (1 ∨ 2) with softs ¬1 (weight 100) and ¬2 (weight 1): the
	// first stratum enforces only ¬1, whose model costs 1 — the anytime
	// incumbent (and, here, the optimum, though unproven at interrupt).
	var inst cnf.WCNF
	inst.NumVars = 2
	inst.AddHard(1, 2)
	inst.AddSoft(100, -1)
	inst.AddSoft(1, -2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prog := &cancelProgress{cancel: cancel, onModel: true}
	res, err := (&WMSU1{Stratified: true}).SolveWithProgress(ctx, &inst, prog)
	if err != nil {
		t.Fatalf("interrupted solve with incumbent returned error: %v", err)
	}
	if prog.models == 0 {
		t.Fatal("engine never published an intermediate model")
	}
	requireSoundFeasible(t, &inst, res, 1)
}

// TestEnginesDeadlineMidSearch runs every engine against a real (not
// synthetic) deadline on an instance too hard to finish, and accepts
// only the two sound outcomes: a verified FEASIBLE incumbent or an
// interruption error carrying at most the optimum as lower bound.
func TestEnginesDeadlineMidSearch(t *testing.T) {
	inst := vertexCoverWCNF(301) // optimum 151
	for _, engine := range engines() {
		t.Run(engine.Name(), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			res, err := engine.Solve(ctx, inst)
			switch {
			case err == nil && res.Status == Feasible:
				requireSoundFeasible(t, inst, res, 151)
			case err == nil && res.Status == Optimal:
				// The engine beat the deadline; nothing to assert beyond
				// the optimum itself.
				if res.Cost != 151 {
					t.Fatalf("optimal cost %d, want 151", res.Cost)
				}
			case err != nil:
				if !errors.Is(err, sat.ErrInterrupted) {
					t.Fatalf("unexpected error: %v", err)
				}
				if res.LowerBound > 151 {
					t.Fatalf("lower bound %d exceeds the optimum 151", res.LowerBound)
				}
			default:
				t.Fatalf("unexpected outcome: status %v, err %v", res.Status, err)
			}
		})
	}
}

// TestSetupStopsWhenCancelled: the SAT-backed engines poll the context
// while they load an instance, so an engine whose race is already over
// returns the interruption instead of finishing its setup. The instance
// is contradictory only in its last two hard clauses: an engine that
// loaded everything would answer INFEASIBLE.
func TestSetupStopsWhenCancelled(t *testing.T) {
	var inst cnf.WCNF
	inst.NumVars = 2 * setupPollEvery
	for v := 1; v < inst.NumVars; v++ {
		inst.AddHard(cnf.Lit(v), cnf.Lit(v+1))
		inst.AddSoft(1, -cnf.Lit(v))
	}
	inst.AddHard(1)
	inst.AddHard(-1)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range []Solver{&WMSU1{}, &WMSU1{Stratified: true}, &LinearSU{}} {
		res, err := s.Solve(ctx, inst.Clone())
		if !errors.Is(err, sat.ErrInterrupted) || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got %v, %v; want the setup interrupted by the cancelled context", s.Name(), res.Status, err)
		}
	}
}
