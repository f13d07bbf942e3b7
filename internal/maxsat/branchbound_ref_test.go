package maxsat

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mpmcs4fta/internal/cnf"
)

// refBranchBound is the reference search BranchBound must reproduce:
// the same branching order and pruning, but unit propagation rescans
// every hard clause for each unit (findHardUnit) instead of reading
// occurrence lists. It has no cooperative bound, so it matches
// BranchBound.Solve.
type refBranchBound struct {
	inst      *cnf.WCNF
	assign    []int8
	order     []int
	best      []bool
	bestCost  int64
	decisions int64
	conflicts int64
}

func refSolve(inst *cnf.WCNF) (Status, int64, []bool, int64, int64) {
	r := &refBranchBound{inst: inst, assign: make([]int8, inst.NumVars+1), bestCost: -1}
	weightOf := make([]int64, inst.NumVars+1)
	for _, soft := range inst.Soft {
		for _, l := range soft.Clause {
			if soft.Weight > weightOf[l.Var()] {
				weightOf[l.Var()] = soft.Weight
			}
		}
	}
	r.order = make([]int, inst.NumVars)
	for v := 1; v <= inst.NumVars; v++ {
		r.order[v-1] = v
	}
	sort.SliceStable(r.order, func(i, j int) bool {
		return weightOf[r.order[i]] > weightOf[r.order[j]]
	})
	r.search()
	if r.bestCost < 0 {
		return Infeasible, 0, nil, r.decisions, r.conflicts
	}
	return Optimal, r.bestCost, r.best, r.decisions, r.conflicts
}

func (r *refBranchBound) search() {
	var trail []int
	undo := func() {
		for _, v := range trail {
			r.assign[v] = 0
		}
	}
	for {
		unitVar, unitVal, conflict := r.findHardUnit()
		if conflict {
			r.conflicts++
			undo()
			return
		}
		if unitVar == 0 {
			break
		}
		r.assign[unitVar] = unitVal
		trail = append(trail, unitVar)
	}
	if r.bestCost >= 0 && r.falsifiedWeight() >= r.bestCost {
		undo()
		return
	}
	branch := 0
	for _, v := range r.order {
		if r.assign[v] == 0 {
			branch = v
			break
		}
	}
	if branch == 0 {
		if cost := r.falsifiedWeight(); r.bestCost < 0 || cost < r.bestCost {
			r.bestCost = cost
			r.best = make([]bool, r.inst.NumVars+1)
			for v := 1; v <= r.inst.NumVars; v++ {
				r.best[v] = r.assign[v] == 1
			}
		}
		undo()
		return
	}
	for _, val := range [2]int8{1, -1} {
		r.assign[branch] = val
		r.decisions++
		r.search()
	}
	r.assign[branch] = 0
	undo()
}

// findHardUnit scans all hard clauses for the first unit or conflict.
func (r *refBranchBound) findHardUnit() (unitVar int, unitVal int8, conflict bool) {
	for _, clause := range r.inst.Hard {
		satisfied := false
		unassigned := 0
		var candidate cnf.Lit
		for _, l := range clause {
			switch r.assign[l.Var()] {
			case 0:
				unassigned++
				candidate = l
			case 1:
				if l.Pos() {
					satisfied = true
				}
			case -1:
				if !l.Pos() {
					satisfied = true
				}
			}
			if satisfied {
				break
			}
		}
		if satisfied {
			continue
		}
		switch unassigned {
		case 0:
			return 0, 0, true
		case 1:
			val := int8(-1)
			if candidate.Pos() {
				val = 1
			}
			return candidate.Var(), val, false
		}
	}
	return 0, 0, false
}

func (r *refBranchBound) falsifiedWeight() int64 {
	var total int64
	for _, soft := range r.inst.Soft {
		falsified := true
		for _, l := range soft.Clause {
			v := r.assign[l.Var()]
			if v == 0 || (v == 1) == l.Pos() {
				falsified = false
				break
			}
		}
		if falsified {
			total += soft.Weight
		}
	}
	return total
}

// refWCNF draws an instance for the reference comparison: hard clauses
// of length 0-4 (empty and unit ones included), repeated and
// complementary literals allowed, soft clauses of length 1-3.
func refWCNF(rng *rand.Rand, numVars int) *cnf.WCNF {
	w := &cnf.WCNF{NumVars: numVars}
	lit := func() cnf.Lit {
		l := cnf.Lit(1 + rng.Intn(numVars))
		if rng.Intn(2) == 0 {
			l = -l
		}
		return l
	}
	clause := func(k int) []cnf.Lit {
		c := make([]cnf.Lit, k)
		for i := range c {
			c[i] = lit()
		}
		return c
	}
	for i, n := 0, rng.Intn(3*numVars); i < n; i++ {
		k := 2 + rng.Intn(3)
		switch rng.Intn(20) {
		case 0:
			k = 0
		case 1, 2, 3:
			k = 1
		}
		w.AddHard(clause(k)...)
	}
	for i, n := 0, 1+rng.Intn(2*numVars); i < n; i++ {
		w.AddSoft(int64(1+rng.Intn(50)), clause(1+rng.Intn(3))...)
	}
	return w
}

// TestBranchBoundMatchesFullScanReference checks that occurrence-list
// propagation leaves the search tree unchanged: on seeded random
// instances BranchBound returns the reference's status, cost, model and
// decision count.
func TestBranchBoundMatchesFullScanReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20201))
	var infeasible, feasible int
	for i := 0; i < 600; i++ {
		inst := refWCNF(rng, 3+rng.Intn(22))
		if i%50 == 0 {
			// A contradictory pair of units: infeasible at the root.
			v := cnf.Lit(1 + rng.Intn(inst.NumVars))
			inst.AddHard(v)
			inst.AddHard(-v)
		}
		wantStatus, wantCost, wantModel, wantDecisions, wantConflicts := refSolve(inst)
		res, err := (&BranchBound{}).Solve(context.Background(), inst)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if res.Status != wantStatus || res.Cost != wantCost || !reflect.DeepEqual(res.Model, wantModel) {
			t.Fatalf("instance %d: got %v cost %d model %v, reference %v cost %d model %v",
				i, res.Status, res.Cost, res.Model, wantStatus, wantCost, wantModel)
		}
		if res.Stats.Decisions != wantDecisions || res.Stats.Conflicts != wantConflicts {
			t.Fatalf("instance %d: %d decisions %d conflicts, reference %d and %d",
				i, res.Stats.Decisions, res.Stats.Conflicts, wantDecisions, wantConflicts)
		}
		if wantStatus == Infeasible {
			infeasible++
		} else {
			feasible++
		}
	}
	if infeasible < 20 || feasible < 200 {
		t.Fatalf("corpus too one-sided: %d infeasible, %d feasible", infeasible, feasible)
	}
}
