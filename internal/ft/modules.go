package ft

import (
	"math"
	"sort"
)

// Modules returns the ids of gates that are modules: gates whose entire
// subtree (gates and events alike) is reachable from the top only
// through them. Modules are independent subsystems — the classical
// prerequisite for divide-and-conquer fault-tree analysis. The top gate
// is always a module. Nodes unreachable from the top are ignored.
//
// Detection is the linear-time algorithm of Dutuit & Rauzy (1996). One
// depth-first pass from the top dates every visit of every node; a node
// reached again through another parent is not re-expanded, only its
// last visit date moves. A second, memoised pass takes the minimum
// first date and the maximum last date over each gate's strict
// descendants. Every visit made while a gate is on the DFS stack lands
// in its subtree, so the gate is a module iff all visits to its
// descendants fall strictly between its own first and exit dates.
func (t *Tree) Modules() ([]string, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}

	// node is one reachable node; inputs occupy kids[kid:kid+len(Inputs)].
	type node struct {
		gate              *Gate // nil for events
		first, last, exit int
		kid               int
	}
	n := len(t.gates) + len(t.events)
	index := make(map[string]int, n)
	nodes := make([]node, 0, n)
	var (
		kids []int // input node indices, grouped by gate
		post []int // gates in DFS exit order
		date int
	)
	visit := func(id string) (idx int, fresh bool) {
		date++
		if i, ok := index[id]; ok {
			nodes[i].last = date
			return i, false
		}
		idx = len(nodes)
		index[id] = idx
		nd := node{gate: t.gates[id], first: date, last: date, exit: date}
		if nd.gate != nil {
			nd.kid = len(kids)
			kids = append(kids, make([]int, len(nd.gate.Inputs))...)
		}
		nodes = append(nodes, nd)
		return idx, true
	}

	// Pass 1: iterative DFS (deep chains must not grow the call stack).
	type frame struct{ node, next int }
	root, _ := visit(t.top)
	stack := []frame{{node: root}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		nd := &nodes[f.node]
		if f.next == len(nd.gate.Inputs) {
			date++
			nd.exit = date
			post = append(post, f.node)
			stack = stack[:len(stack)-1]
			continue
		}
		in, slot := nd.gate.Inputs[f.next], nd.kid+f.next
		f.next++
		child, fresh := visit(in) // may grow nodes: nd is stale below
		kids[slot] = child
		if fresh && nodes[child].gate != nil {
			stack = append(stack, frame{node: child})
		}
	}

	// Pass 2: descendant date ranges, children before parents.
	minDesc := make([]int, len(nodes))
	maxDesc := make([]int, len(nodes))
	var modules []string
	for _, i := range post {
		nd := &nodes[i]
		lo, hi := math.MaxInt, 0
		for _, c := range kids[nd.kid : nd.kid+len(nd.gate.Inputs)] {
			lo = min(lo, nodes[c].first)
			hi = max(hi, nodes[c].last)
			if nodes[c].gate != nil {
				lo = min(lo, minDesc[c])
				hi = max(hi, maxDesc[c])
			}
		}
		minDesc[i], maxDesc[i] = lo, hi
		if nd.first < lo && hi < nd.exit {
			modules = append(modules, nd.gate.ID)
		}
	}
	sort.Strings(modules)
	return modules, nil
}

// Parents returns, for every reachable node, the ids of the gates that
// list it as an input. The top node maps to an empty slice.
func (t *Tree) Parents() (map[string][]string, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	out := make(map[string][]string)
	var walk func(id string)
	seen := make(map[string]bool)
	walk = func(id string) {
		if seen[id] {
			return
		}
		seen[id] = true
		if _, ok := out[id]; !ok {
			out[id] = nil
		}
		g, ok := t.gates[id]
		if !ok {
			return
		}
		for _, in := range g.Inputs {
			out[in] = append(out[in], id)
			walk(in)
		}
	}
	walk(t.top)
	for id := range out {
		sort.Strings(out[id])
	}
	return out, nil
}

// IsTreeShaped reports whether every reachable node except the top has
// exactly one parent — i.e. the structure is a tree, not a shared DAG.
// Several fast analyses (bottom-up probability) require this.
func (t *Tree) IsTreeShaped() (bool, error) {
	parents, err := t.Parents()
	if err != nil {
		return false, err
	}
	for id, ps := range parents {
		if id == t.top {
			continue
		}
		if len(ps) != 1 {
			return false, nil
		}
	}
	return true, nil
}

// DFSEventOrder returns the basic events in depth-first traversal
// order from the top event — the classical BDD variable-ordering
// heuristic for fault trees (events of one subsystem stay adjacent).
// Events unreachable from the top are appended in insertion order so
// the result always covers every event.
func (t *Tree) DFSEventOrder() []string {
	seen := make(map[string]bool, t.NumEvents())
	order := make([]string, 0, t.NumEvents())
	var walk func(id string)
	walk = func(id string) {
		if seen[id] {
			return
		}
		seen[id] = true
		if g := t.gates[id]; g != nil {
			for _, in := range g.Inputs {
				walk(in)
			}
			return
		}
		if t.events[id] != nil {
			order = append(order, id)
		}
	}
	if t.top != "" {
		walk(t.top)
	}
	for _, e := range t.Events() {
		if !seen[e.ID] {
			order = append(order, e.ID)
		}
	}
	return order
}
