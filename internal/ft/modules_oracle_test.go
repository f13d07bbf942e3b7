package ft_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/gen"
)

// modulesOracle is the definition of a module, computed directly: a
// reachable gate is a module iff every reachable parent of every node
// in its subtree (other than the gate itself) lies inside the subtree.
// It builds one descendant bitset per node, O(n²/64) space and O(gates
// × nodes) time, so it serves only as the reference for Tree.Modules.
func modulesOracle(t *ft.Tree) []string {
	index := make(map[string]int)
	var ids []string
	var collect func(id string)
	collect = func(id string) {
		if _, seen := index[id]; seen {
			return
		}
		index[id] = len(ids)
		ids = append(ids, id)
		if g := t.Gate(id); g != nil {
			for _, in := range g.Inputs {
				collect(in)
			}
		}
	}
	collect(t.Top())

	parents := make([][]int, len(ids))
	for idx, id := range ids {
		if g := t.Gate(id); g != nil {
			for _, in := range g.Inputs {
				parents[index[in]] = append(parents[index[in]], idx)
			}
		}
	}

	words := (len(ids) + 63) / 64
	desc := make([][]uint64, len(ids))
	var fill func(id string) []uint64
	fill = func(id string) []uint64 {
		idx := index[id]
		if desc[idx] != nil {
			return desc[idx]
		}
		set := make([]uint64, words)
		set[idx/64] |= 1 << uint(idx%64)
		desc[idx] = set
		if g := t.Gate(id); g != nil {
			for _, in := range g.Inputs {
				for w, bits := range fill(in) {
					set[w] |= bits
				}
			}
		}
		return set
	}
	fill(t.Top())
	contains := func(set []uint64, idx int) bool { return set[idx/64]&(1<<uint(idx%64)) != 0 }

	var modules []string
	for _, g := range t.Gates() {
		idx, reachable := index[g.ID]
		if !reachable {
			continue
		}
		isModule := true
		set := desc[idx]
		for child := 0; child < len(ids) && isModule; child++ {
			if child == idx || !contains(set, child) {
				continue
			}
			for _, p := range parents[child] {
				if !contains(set, p) {
					isModule = false
					break
				}
			}
		}
		if isModule {
			modules = append(modules, g.ID)
		}
	}
	sort.Strings(modules)
	return modules
}

func assertModulesMatchOracle(t *testing.T, tree *ft.Tree) []string {
	t.Helper()
	got, err := tree.Modules()
	if err != nil {
		t.Fatalf("%s: %v", tree.Name(), err)
	}
	if want := modulesOracle(tree); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Modules = %v, oracle %v", tree.Name(), got, want)
	}
	return got
}

// TestModulesMatchOracleOnGenerated compares Modules with the oracle on
// seeded random DAGs (shared gates and events), strict trees and
// modular trees with a known module count.
func TestModulesMatchOracleOnGenerated(t *testing.T) {
	n := 0
	for seed := int64(1); seed <= 200; seed++ {
		tree, err := gen.Random(gen.Config{
			Events:     5 + int(seed%60),
			AndBias:    0.3 + 0.1*float64(seed%4),
			VotingFrac: 0.1 * float64(seed%3),
			NoSharing:  seed%5 == 0,
			Seed:       seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		assertModulesMatchOracle(t, tree)
		n++
	}
	for seed := int64(1); seed <= 200; seed++ {
		tree, err := gen.Random(gen.Config{Events: 150 + int(seed), MaxFanIn: 2 + int(seed%5), Seed: 1000 + seed})
		if err != nil {
			t.Fatal(err)
		}
		assertModulesMatchOracle(t, tree)
		n++
	}
	for seed := int64(1); seed <= 150; seed++ {
		modules := 2 + int(seed%6)
		tree, err := gen.Modular(gen.ModularConfig{
			Modules:         modules,
			EventsPerModule: 3 + int(seed%20),
			TopAnd:          seed%2 == 0,
			VotingFrac:      0.15,
			Seed:            seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := assertModulesMatchOracle(t, tree)
		if len(got) < modules+1 {
			t.Fatalf("%s: %d modules %v, want at least the top and %d module roots", tree.Name(), len(got), got, modules)
		}
		n++
	}
	if n < 500 {
		t.Fatalf("compared %d trees, want at least 500", n)
	}
}

func buildTree(t *testing.T, top string, events []string, gates [][]string) *ft.Tree {
	t.Helper()
	tree := ft.New(top)
	for _, e := range events {
		if err := tree.AddEvent(e, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range gates {
		if err := tree.AddOr(g[0], g[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	tree.SetTop(top)
	return tree
}

func TestModulesHandBuilt(t *testing.T) {
	cases := []struct {
		name string
		tree *ft.Tree
		want []string
	}{
		{
			// Gates m1 and m2 both reach the shared sub-DAG rooted at s
			// besides their private events: s's subtree is entered
			// through s alone, so s and s2 are modules, but m1 and m2
			// are not independent of each other.
			name: "shared sub-DAG reached from two gates",
			tree: buildTree(t, "top",
				[]string{"a", "b", "c", "d", "e"},
				[][]string{
					{"s2", "d", "e"},
					{"s", "c", "s2"},
					{"m1", "a", "s"},
					{"m2", "b", "s"},
					{"top", "m1", "m2"},
				}),
			want: []string{"s", "s2", "top"},
		},
		{
			// As above, but m1 also reads c directly: c now has a parent
			// outside s, so only s2 keeps its independence.
			name: "shared sub-DAG entered below its root",
			tree: buildTree(t, "top",
				[]string{"a", "b", "c", "d", "e"},
				[][]string{
					{"s2", "d", "e"},
					{"s", "c", "s2"},
					{"m1", "a", "s", "c"},
					{"m2", "b", "s"},
					{"top", "m1", "m2"},
				}),
			want: []string{"s2", "top"},
		},
		{
			// m is a module with two parents: p1 and p2 both use it, and
			// nothing inside m is reachable from elsewhere.
			name: "module gate with two parents",
			tree: buildTree(t, "top",
				[]string{"a", "b", "x", "y"},
				[][]string{
					{"m", "a", "b"},
					{"p1", "m", "x"},
					{"p2", "m", "y"},
					{"top", "p1", "p2"},
				}),
			want: []string{"m", "top"},
		},
		{
			// Gates off the top's cone are ignored, including the
			// parent u2 that would otherwise break g's independence.
			name: "gates unreachable from the top",
			tree: buildTree(t, "top",
				[]string{"a", "b", "c"},
				[][]string{
					{"g", "a", "b"},
					{"top", "g", "c"},
					{"u1", "a", "c"},
					{"u2", "g", "u1"},
				}),
			want: []string{"g", "top"},
		},
		{
			// The same input listed twice by one gate.
			name: "repeated input",
			tree: buildTree(t, "top",
				[]string{"a", "b"},
				[][]string{
					{"g", "a", "a", "b"},
					{"top", "g", "g", "a"},
				}),
			want: []string{"top"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := assertModulesMatchOracle(t, tc.tree); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Modules = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestModulesDeepChain runs Modules on a chain of 10k gates, each with
// a private event: every gate is a module. The oracle would need 10k
// descendant bitsets of 20k bits, so the expected list is written out
// directly and the oracle checks a shorter chain of the same shape.
func TestModulesDeepChain(t *testing.T) {
	chain := func(n int) (*ft.Tree, []string) {
		tree := ft.New(fmt.Sprintf("chain%d", n))
		want := make([]string, 0, n)
		prev := "leaf"
		if err := tree.AddEvent(prev, 0.1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			e, g := fmt.Sprintf("e%d", i), fmt.Sprintf("g%d", i)
			if err := tree.AddEvent(e, 0.1); err != nil {
				t.Fatal(err)
			}
			if err := tree.AddAnd(g, prev, e); err != nil {
				t.Fatal(err)
			}
			want = append(want, g)
			prev = g
		}
		tree.SetTop(prev)
		sort.Strings(want)
		return tree, want
	}
	tree, want := chain(10000)
	got, err := tree.Modules()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("deep chain: %d modules, want all %d gates", len(got), len(want))
	}
	small, want := chain(500)
	if got := assertModulesMatchOracle(t, small); !reflect.DeepEqual(got, want) {
		t.Fatalf("chain500: %d modules, want all %d gates", len(got), len(want))
	}
}
