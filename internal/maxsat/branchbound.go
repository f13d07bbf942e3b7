package maxsat

import (
	"context"
	"fmt"
	"sort"
	"time"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/obs"
	"mpmcs4fta/internal/sat"
)

// BranchBound is a dedicated branch-and-bound Weighted Partial MaxSAT
// engine: depth-first search over the instance variables with unit
// propagation on the hard clauses and pruning by the weight of soft
// clauses already fully falsified. Propagation reads per-literal
// occurrence lists of the hard clauses: the root checks every clause
// once, and each later node revisits only the clauses in which its
// newly assigned variables falsified a literal. It needs no SAT oracle
// at all, which makes it a usefully different portfolio member —
// strong on small and highly-constrained instances, weak on large
// under-constrained ones.
//
// Run cooperatively (SolveWithProgress), the engine also prunes against
// the global incumbent published by sibling engines and publishes its
// own improving models.
type BranchBound struct{}

var _ ProgressSolver = (*BranchBound)(nil)

// Name implements Solver.
func (b *BranchBound) Name() string { return "branch-bound" }

type bbState struct {
	inst     *cnf.WCNF
	assign   []int8  // 0 unassigned, 1 true, -1 false; by variable
	order    []int   // variable branching order
	occurs   [][]int // hard clause indices by literal (see litIndex)
	trail    []int   // variables assigned by propagation, all nodes
	best     []bool
	bestCost int64
	steps    int64
	stats    obs.SolverStats

	prog     Progress
	bus      *obs.EventBus // live heartbeats; nil when disabled
	lastBeat time.Time
	globalUB int64 // cached sibling incumbent; -1 when none
	// minPrune is the smallest bound any prune ever used. On
	// completion the search has proven optimum ≥ min(bestCost,
	// minPrune): when a sibling's incumbent (below our own best)
	// pruned a branch, that branch may hide assignments cheaper than
	// our best — but none cheaper than the bound used. -1 = no prune.
	minPrune int64
}

// Solve implements Solver.
func (b *BranchBound) Solve(ctx context.Context, inst *cnf.WCNF) (Result, error) {
	return b.SolveWithProgress(ctx, inst, nil)
}

// SolveWithProgress implements ProgressSolver.
func (b *BranchBound) SolveWithProgress(ctx context.Context, inst *cnf.WCNF, prog Progress) (Result, error) {
	if err := inst.Validate(); err != nil {
		return Result{}, fmt.Errorf("maxsat: %w", err)
	}
	st := &bbState{
		inst:     inst,
		assign:   make([]int8, inst.NumVars+1),
		bestCost: -1,
		prog:     prog,
		bus:      obs.BusFromContext(ctx),
		globalUB: -1,
		minPrune: -1,
	}
	name := b.Name()
	if n := obs.EngineNameFromContext(ctx); n != "" {
		name = n
	}
	st.stats.Start(name)

	// Branch on heavier variables first: variables appearing in heavy
	// soft clauses decide more cost, so deciding them early tightens the
	// bound sooner.
	weightOf := make([]int64, inst.NumVars+1)
	for _, soft := range inst.Soft {
		for _, l := range soft.Clause {
			if soft.Weight > weightOf[l.Var()] {
				weightOf[l.Var()] = soft.Weight
			}
		}
	}
	st.order = make([]int, inst.NumVars)
	for v := 1; v <= inst.NumVars; v++ {
		st.order[v-1] = v
	}
	sort.SliceStable(st.order, func(i, j int) bool {
		return weightOf[st.order[i]] > weightOf[st.order[j]]
	})
	st.occurs = make([][]int, 2*(inst.NumVars+1))
	for ci, clause := range inst.Hard {
		for _, l := range clause {
			st.occurs[litIndex(l)] = append(st.occurs[litIndex(l)], ci)
		}
	}

	if err := st.search(ctx, 0, 0); err != nil {
		if st.best == nil {
			return Result{Stats: st.stats}, err
		}
		// Anytime answer: the subtree below the incumbent is
		// unexplored, so no lower bound is proven — only feasibility.
		return verifyResult(inst, Result{Status: Feasible, Model: st.best, Cost: st.bestCost, Stats: st.stats})
	}
	if st.bestCost < 0 {
		if st.minPrune < 0 {
			// Exhaustive search, no prune, no model: the hard clauses
			// admit no assignment.
			return Result{Status: Infeasible, Stats: st.stats}, nil
		}
		// Every feasible assignment was cut off by a sibling's
		// incumbent: the search only proves optimum ≥ minPrune.
		if st.prog != nil {
			st.prog.PublishLower(st.minPrune)
		}
		st.stats.RecordBound(st.stats.Decisions, st.minPrune, -1)
		return Result{Status: Unknown, LowerBound: st.minPrune, Stats: st.stats}, nil
	}
	if st.minPrune >= 0 && st.minPrune < st.bestCost {
		// Completion proves optimum ≥ minPrune but the pruning bound
		// came from a sibling's better incumbent, so our own model is
		// not proven optimal.
		if st.prog != nil {
			st.prog.PublishLower(st.minPrune)
		}
		st.stats.RecordBound(st.stats.Decisions, st.minPrune, st.bestCost)
		return verifyResult(inst, Result{Status: Feasible, Model: st.best, Cost: st.bestCost, LowerBound: st.minPrune, Stats: st.stats})
	}
	if st.prog != nil {
		st.prog.PublishLower(st.bestCost)
	}
	st.stats.RecordBound(st.stats.Decisions, st.bestCost, st.bestCost)
	return verifyResult(inst, Result{Status: Optimal, Model: st.best, Cost: st.bestCost, Stats: st.stats})
}

// maybeHeartbeat publishes the search counters at the live-telemetry
// cadence (rate-limited like sat.Telemetry, clock consulted only at
// the steps&511 poll boundary).
func (st *bbState) maybeHeartbeat() {
	if !st.bus.Enabled() {
		return
	}
	now := time.Now()
	if st.lastBeat.IsZero() {
		st.lastBeat = now
		return
	}
	if now.Sub(st.lastBeat) < 500*time.Millisecond {
		return
	}
	st.lastBeat = now
	st.bus.Publish(obs.Heartbeat{
		Engine:       st.stats.Engine(),
		Conflicts:    st.stats.Conflicts,
		Decisions:    st.stats.Decisions,
		Propagations: st.stats.Propagations,
	})
}

// pruneBound is the effective upper bound to prune against: the lower
// of the engine's own incumbent and the cached global one; -1 = none.
func (st *bbState) pruneBound() int64 {
	pb := st.bestCost
	if st.globalUB >= 0 && (pb < 0 || st.globalUB < pb) {
		pb = st.globalUB
	}
	return pb
}

// search explores the extensions of the current partial assignment,
// in which branch (0 at the root) is the variable the parent has just
// decided and order[:from] is already assigned.
func (st *bbState) search(ctx context.Context, branch, from int) error {
	st.steps++
	if st.steps&511 == 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", sat.ErrInterrupted, err)
		}
		// Refresh the sibling incumbent at the same cadence as the
		// cancellation check: the bound manager takes a lock, so per-node
		// polling would serialise the portfolio.
		if st.prog != nil {
			if cost, ok := st.prog.BestKnown(); ok {
				st.globalUB = cost
			}
		}
		st.maybeHeartbeat()
	}

	// Unit propagation on hard clauses; the trail above mark is undone
	// on every return.
	mark := len(st.trail)
	undo := func() {
		for _, v := range st.trail[mark:] {
			st.assign[v] = 0
		}
		st.trail = st.trail[:mark]
	}
	if st.propagate(branch, mark) {
		st.stats.Conflicts++
		undo()
		return nil
	}

	// Prune when already no better than the best incumbent (ours or a
	// sibling's). Any assignment below this node costs at least lb, so
	// optimum ≥ min over all prunes of the bound used — tracked in
	// minPrune for the completion-time optimality argument.
	lb := st.falsifiedWeight()
	if pb := st.pruneBound(); pb >= 0 && lb >= pb {
		if st.minPrune < 0 || pb < st.minPrune {
			st.minPrune = pb
		}
		undo()
		return nil
	}

	// Next unassigned variable in branching order.
	next := 0
	for ; from < len(st.order); from++ {
		if v := st.order[from]; st.assign[v] == 0 {
			next = v
			break
		}
	}
	if next == 0 {
		// Complete assignment; hard clauses hold by propagation above.
		cost := st.falsifiedWeight()
		if st.bestCost < 0 || cost < st.bestCost {
			st.stats.RecordBound(st.stats.Decisions, 0, cost)
			st.bestCost = cost
			st.best = make([]bool, st.inst.NumVars+1)
			for v := 1; v <= st.inst.NumVars; v++ {
				st.best[v] = st.assign[v] == 1
			}
			if st.prog != nil {
				st.prog.PublishModel(cost, st.best)
			}
		}
		undo()
		return nil
	}

	for _, val := range [2]int8{1, -1} {
		st.assign[next] = val
		st.stats.Decisions++
		if err := st.search(ctx, next, from+1); err != nil {
			st.assign[next] = 0
			undo()
			return err
		}
	}
	st.assign[next] = 0
	undo()
	return nil
}

// litIndex maps a literal to its slot in occurs.
func litIndex(l cnf.Lit) int {
	if l.Pos() {
		return 2 * l.Var()
	}
	return 2*l.Var() + 1
}

// falseLit is the literal of v that v's current value falsifies, as an
// occurs index.
func (st *bbState) falseLit(v int) int {
	if st.assign[v] == 1 {
		return 2*v + 1
	}
	return 2 * v
}

// propagate runs unit propagation to its fixpoint, pushing implied
// variables onto the trail, and reports a conflict. The assignment
// before branch was decided is a fixpoint (no hard clause unit or
// falsified), so only clauses in which branch, or a variable implied
// after it, falsified a literal need a look; at the root (branch 0)
// every clause is checked once.
func (st *bbState) propagate(branch, mark int) (conflict bool) {
	if branch == 0 {
		for ci := range st.inst.Hard {
			if st.checkClause(ci) {
				return true
			}
		}
	} else if st.checkAll(st.occurs[st.falseLit(branch)]) {
		return true
	}
	for i := mark; i < len(st.trail); i++ {
		if st.checkAll(st.occurs[st.falseLit(st.trail[i])]) {
			return true
		}
	}
	return false
}

func (st *bbState) checkAll(clauses []int) (conflict bool) {
	for _, ci := range clauses {
		if st.checkClause(ci) {
			return true
		}
	}
	return false
}

// checkClause reports whether hard clause ci is falsified; when it is
// unit, it assigns the remaining literal and pushes it on the trail.
func (st *bbState) checkClause(ci int) (conflict bool) {
	unassigned := 0
	var candidate cnf.Lit
	for _, l := range st.inst.Hard[ci] {
		switch st.assign[l.Var()] {
		case 0:
			unassigned++
			candidate = l
		case 1:
			if l.Pos() {
				return false
			}
		case -1:
			if !l.Pos() {
				return false
			}
		}
	}
	switch unassigned {
	case 0:
		return true
	case 1:
		v := candidate.Var()
		st.assign[v] = -1
		if candidate.Pos() {
			st.assign[v] = 1
		}
		st.stats.Propagations++
		st.trail = append(st.trail, v)
	}
	return false
}

// falsifiedWeight sums the weights of soft clauses every literal of
// which is assigned false — an admissible lower bound on any extension.
func (st *bbState) falsifiedWeight() int64 {
	var total int64
	for _, soft := range st.inst.Soft {
		falsified := true
		for _, l := range soft.Clause {
			v := st.assign[l.Var()]
			if v == 0 || (v == 1) == l.Pos() {
				falsified = false
				break
			}
		}
		if falsified {
			//lint:ignore weightsafe sums a subset of the soft weights, bounded by the Validate-checked total
			total += soft.Weight
		}
	}
	return total
}
