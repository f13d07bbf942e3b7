// Package mcs provides classical minimal-cut-set machinery for fault
// trees: the MOCUS top-down expansion algorithm, an exhaustive
// truth-table oracle for small trees, minimisation, and cut-set
// predicates. It complements the MaxSAT pipeline (internal/core) and
// the BDD engine (internal/bdd) as a baseline and as test oracles.
package mcs

import (
	"fmt"
	"sort"

	"mpmcs4fta/internal/boolexpr"
	"mpmcs4fta/internal/ft"
)

// CutSet is a set of basic-event ids, kept sorted.
type CutSet []string

// Probability returns the joint probability of the cut set: the product
// of the member events' probabilities.
func (c CutSet) Probability(probs map[string]float64) float64 {
	p := 1.0
	for _, id := range c {
		p *= probs[id]
	}
	return p
}

// contains reports whether c ⊇ other (both sorted).
func (c CutSet) contains(other CutSet) bool {
	if len(other) > len(c) {
		return false
	}
	i := 0
	for _, want := range other {
		for i < len(c) && c[i] < want {
			i++
		}
		if i >= len(c) || c[i] != want {
			return false
		}
		i++
	}
	return true
}

// normalize sorts and deduplicates a set's members.
func normalize(set []string) CutSet {
	sorted := append([]string(nil), set...)
	sort.Strings(sorted)
	out := sorted[:0]
	for i, id := range sorted {
		if i == 0 || id != sorted[i-1] {
			out = append(out, id)
		}
	}
	return CutSet(out)
}

// SortSets orders cut sets lexicographically (shorter first on ties),
// for deterministic output.
func SortSets(sets []CutSet) {
	sort.Slice(sets, func(i, j int) bool {
		a, b := sets[i], sets[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

// Minimize removes duplicates and supersets, leaving only minimal sets.
func Minimize(sets []CutSet) []CutSet {
	bySize := make([]CutSet, len(sets))
	copy(bySize, sets)
	sort.Slice(bySize, func(i, j int) bool { return len(bySize[i]) < len(bySize[j]) })
	var out []CutSet
	for _, candidate := range bySize {
		redundant := false
		for _, kept := range out {
			if candidate.contains(kept) {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, candidate)
		}
	}
	SortSets(out)
	return out
}

// MOCUS computes all minimal cut sets by top-down expansion of the
// tree's structure function (the classical MOCUS algorithm). Voting
// gates are expanded into AND/OR form first. Worst-case output is
// exponential; use the BDD engine for large trees.
func MOCUS(t *ft.Tree) ([]CutSet, error) {
	f, err := t.Formula()
	if err != nil {
		return nil, err
	}
	expanded := boolexpr.Simplify(boolexpr.ExpandAtLeast(f))
	if !boolexpr.IsMonotone(expanded) {
		return nil, fmt.Errorf("mcs: structure function is not monotone")
	}
	sets := expand(expanded)
	return Minimize(sets), nil
}

// expand returns the (not necessarily minimal) cut sets of a monotone
// And/Or/Var expression.
func expand(e boolexpr.Expr) []CutSet {
	switch x := e.(type) {
	case boolexpr.Var:
		return []CutSet{{x.Name}}
	case boolexpr.Or:
		var out []CutSet
		for _, c := range x.Xs {
			out = append(out, expand(c)...)
		}
		return out
	case boolexpr.And:
		out := []CutSet{{}}
		for _, c := range x.Xs {
			child := expand(c)
			if len(child) == 0 {
				return nil // conjunction with an unsatisfiable operand
			}
			next := make([]CutSet, 0, len(out)*len(child))
			for _, left := range out {
				for _, right := range child {
					merged := make([]string, 0, len(left)+len(right))
					merged = append(merged, left...)
					merged = append(merged, right...)
					next = append(next, normalize(merged))
				}
			}
			out = next
		}
		return out
	case boolexpr.Const:
		if x.B {
			return []CutSet{{}}
		}
		return nil
	}
	// Simplify + ExpandAtLeast leave no other node kinds.
	panic(fmt.Sprintf("mcs: unexpected expression type %T", e))
}

// Exhaustive computes all minimal cut sets by truth-table enumeration —
// the oracle used in tests. It refuses trees with more than MaxOracleEvents
// events.
func Exhaustive(t *ft.Tree) ([]CutSet, error) {
	if t.NumEvents() > MaxOracleEvents {
		return nil, fmt.Errorf("mcs: %d events exceed the exhaustive oracle limit %d", t.NumEvents(), MaxOracleEvents)
	}
	f, err := t.Formula()
	if err != nil {
		return nil, err
	}
	events := t.Events()
	vars := make([]string, len(events))
	for i, e := range events {
		vars[i] = e.ID
	}
	var out []CutSet
	boolexpr.AllAssignments(vars, func(assign map[string]bool) bool {
		if !f.Eval(assign) {
			return true
		}
		// Minimal under monotonicity: no single removal stays true.
		for _, v := range vars {
			if !assign[v] {
				continue
			}
			assign[v] = false
			sat := f.Eval(assign)
			assign[v] = true
			if sat {
				return true
			}
		}
		var set []string
		for _, v := range vars {
			if assign[v] {
				set = append(set, v)
			}
		}
		out = append(out, normalize(set))
		return true
	})
	SortSets(out)
	return out, nil
}

// MaxOracleEvents bounds the exhaustive oracle (2^n evaluations).
const MaxOracleEvents = 22

// IsCutSet reports whether failing exactly the given events triggers the
// top event.
func IsCutSet(t *ft.Tree, set []string) (bool, error) {
	failed := make(map[string]bool, len(set))
	for _, id := range set {
		if t.Event(id) == nil {
			return false, fmt.Errorf("mcs: %q is not a basic event", id)
		}
		failed[id] = true
	}
	return t.Eval(failed)
}

// IsMinimalCutSet reports whether the set is a cut set none of whose
// proper subsets is (single-removal check, exact for coherent trees).
func IsMinimalCutSet(t *ft.Tree, set []string) (bool, error) {
	cut, err := IsCutSet(t, set)
	if err != nil || !cut {
		return false, err
	}
	norm := normalize(set)
	failed := make(map[string]bool, len(norm))
	for _, id := range norm {
		failed[id] = true
	}
	for _, id := range norm {
		failed[id] = false
		still := t.EvalValidated(failed) // IsCutSet validated t
		failed[id] = true
		if still {
			return false, nil
		}
	}
	return true, nil
}

// SPOFs returns the single points of failure: events that alone trigger
// the top event (the qualitative measure named in the paper's §II).
func SPOFs(t *ft.Tree) ([]string, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	var out []string
	for _, e := range t.Events() {
		cut, err := IsCutSet(t, []string{e.ID})
		if err != nil {
			return nil, err
		}
		if cut {
			out = append(out, e.ID)
		}
	}
	sort.Strings(out)
	return out, nil
}

// MaxProbability returns the cut set with the highest joint probability
// among the given sets, breaking ties deterministically (lexicographic).
// It returns nil for an empty input.
func MaxProbability(sets []CutSet, probs map[string]float64) (CutSet, float64) {
	var (
		best     CutSet
		bestProb float64
	)
	ordered := make([]CutSet, len(sets))
	copy(ordered, sets)
	SortSets(ordered)
	for _, set := range ordered {
		if p := set.Probability(probs); p > bestProb {
			best, bestProb = set, p
		}
	}
	return best, bestProb
}
