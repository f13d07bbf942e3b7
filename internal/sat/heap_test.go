package sat

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mpmcs4fta/internal/cnf"
)

// checkOrderHeap asserts, at decision level 0, the invariant growTo
// relies on when it inserts only the new variable range: every
// unassigned variable is in the order heap, and the heap's position
// index agrees with its array.
func checkOrderHeap(t *testing.T, s *Solver, where string) {
	t.Helper()
	if s.decisionLevel() != 0 {
		t.Fatalf("%s: decision level %d, want 0", where, s.decisionLevel())
	}
	if len(s.order.indices) != s.numVars {
		t.Fatalf("%s: heap index covers %d variables, solver has %d", where, len(s.order.indices), s.numVars)
	}
	for i, v := range s.order.heap {
		if s.order.indices[v] != i {
			t.Fatalf("%s: heap[%d]=%d but indices[%d]=%d", where, i, v, v, s.order.indices[v])
		}
	}
	for v := 0; v < s.numVars; v++ {
		if s.assigns[v] == lUndef && !s.order.contains(v) {
			t.Fatalf("%s: unassigned variable %d is missing from the order heap", where, v+1)
		}
	}
}

// TestOrderHeapHoldsUnassignedVars interleaves AddVars, AddClause
// (including clauses that allocate variables implicitly) and
// incremental Solve calls with and without assumptions, checking the
// heap invariant after every step. Each AddVars step adds a fresh pair
// (v, w) constrained to exactly one true: a model can satisfy that pair
// only if the search decided one of them, so a fresh variable that
// never reached the heap shows up as a violated clause.
func TestOrderHeapHoldsUnassignedVars(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(977))
	for trial := 0; trial < 30; trial++ {
		opts := Options{}
		if trial%2 == 1 {
			opts.RandomSeed = int64(trial) // random decisions read the heap array
		}
		s := New(3+rng.Intn(5), opts)
		var clauses []cnf.Clause
		add := func(c cnf.Clause) {
			clauses = append(clauses, c)
			s.AddClause(c...)
		}
		randLit := func(n int) cnf.Lit {
			l := cnf.Lit(1 + rng.Intn(n))
			if rng.Intn(2) == 0 {
				l = -l
			}
			return l
		}
		checkOrderHeap(t, s, "after New")
		for step := 0; step < 40 && !s.unsat; step++ {
			where := fmt.Sprintf("trial %d step %d", trial, step)
			switch rng.Intn(5) {
			case 0:
				v := cnf.Lit(s.AddVars(2) - 1)
				checkOrderHeap(t, s, where+" AddVars")
				add(cnf.Clause{v, v + 1})
				add(cnf.Clause{-v, -(v + 1)})
			case 1:
				// One literal past NumVars: AddClause grows the range.
				add(cnf.Clause{randLit(s.NumVars()), randLit(s.NumVars() + 1)})
			case 2:
				add(cnf.Clause{randLit(s.NumVars()), randLit(s.NumVars()), randLit(s.NumVars())})
			case 3:
				// Assumption on a variable past NumVars grows the range too.
				assumps := []cnf.Lit{randLit(s.NumVars()), randLit(s.NumVars() + 1)}
				if _, err := s.Solve(ctx, assumps...); err != nil {
					t.Fatal(err)
				}
			default:
				st, err := s.Solve(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if st == Sat {
					assertModelSatisfies(t, s.Model(), clauses)
				}
			}
			checkOrderHeap(t, s, where)
		}
		if st, err := s.Solve(ctx); err != nil {
			t.Fatal(err)
		} else if st == Sat {
			assertModelSatisfies(t, s.Model(), clauses)
		}
		checkOrderHeap(t, s, fmt.Sprintf("trial %d final", trial))
	}
}

// TestOrderHeapAfterInterruptedSolve cancels a solve at the decision
// poll, which fires right after a variable was popped from the heap
// but before it was assigned; the variable must be back in the heap,
// and a later solve must still decide it.
func TestOrderHeapAfterInterruptedSolve(t *testing.T) {
	const n = 3000 // well past the 1024-decision poll interval
	s := New(0, Options{})
	var clauses []cnf.Clause
	for v := cnf.Lit(1); v+1 <= n; v += 2 {
		c := cnf.Clause{v, v + 1} // no conflicts: every decision sticks
		clauses = append(clauses, c)
		s.AddClause(c...)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Solve(ctx); err == nil {
		t.Fatal("cancelled solve should return an error")
	}
	checkOrderHeap(t, s, "after interrupted solve")
	st, err := s.Solve(context.Background())
	if err != nil || st != Sat {
		t.Fatalf("Solve = %v, %v; want Sat", st, err)
	}
	assertModelSatisfies(t, s.Model(), clauses)
}
