// Package decomp turns one fault tree into a modular decomposition
// plan and executes it: independent Dutuit–Rauzy modules (ft.Modules)
// are solved as separate MaxSAT instances, bottom-up, each solved
// module re-entering its parent as a pseudo-basic-event whose
// probability is the module's own MPMCS optimum. Because modules are
// variable-disjoint and −log weights are additive, substituting module
// optima preserves the global optimum: the MPMCS of the whole tree is
// the root quotient's MPMCS with every pseudo-event expanded by its
// module's cut set.
//
// The package is deliberately solver-agnostic: BuildPlan produces
// quotient trees, Execute schedules them over a sched.Pool and calls
// back into a Solver the caller provides (internal/core supplies the
// WCNF + portfolio pipeline), so decomp depends only on ft, sched and
// obs and cannot cycle back into core.
package decomp

import (
	"fmt"
	"sort"

	"mpmcs4fta/internal/ft"
)

// DefaultMinEvents is the smallest module subtree worth a separate
// solve. In a tree-shaped tree every gate is a module, so without a
// floor the plan would degenerate into one instance per gate and the
// scheduling overhead would swamp the per-instance work.
const DefaultMinEvents = 8

// pseudoProbPlaceholder marks a pseudo-event whose real probability
// arrives only when its module's solve completes (Execute substitutes
// it via SetProb before the parent is submitted). Any valid interior
// probability works; solving a node with a placeholder still in place
// is a bug.
const pseudoProbPlaceholder = 0.5

// Options configures planning.
type Options struct {
	// MinEvents is the minimum number of basic events in a module's
	// subtree for it to become its own plan node; smaller modules stay
	// inlined in their parent. Values below 1 select DefaultMinEvents.
	MinEvents int
}

// PlanNode is one schedulable sub-solve: a quotient tree rooted at a
// module gate, in which every nested planned module appears as a
// pseudo-basic-event reusing the module gate's id.
type PlanNode struct {
	// ID is the module gate's id in the original tree; the quotient
	// tree's top. The root node's ID is the original top.
	ID string
	// Tree is the quotient: the module's own gates and events, with
	// nested planned modules replaced by pseudo-events (their ids are
	// listed in Children). Execute mutates the pseudo probabilities in
	// place as children complete, so the tree must not be shared.
	Tree *ft.Tree
	// Children are the nested plan nodes, i.e. the pseudo-event ids in
	// Tree, sorted.
	Children []string
	// Parent is the plan node whose quotient holds this module as a
	// pseudo-event ("" for the root).
	Parent string
	// Events is the number of real basic events in Tree (pseudo-events
	// excluded) — the size signal deadline shares are carved from.
	Events int
}

// Plan is a modular decomposition: a DAG of quotient solves. Leaves
// first, the root (original top) last.
type Plan struct {
	// Nodes maps module gate id to its plan node.
	Nodes map[string]*PlanNode
	// Order lists node ids bottom-up: every node appears after all of
	// its Children, the Root last.
	Order []string
	// Root is the top node's id.
	Root string
	// TotalEvents is the number of real events across all nodes.
	TotalEvents int
}

// Trivial reports whether the plan offers no decomposition (fewer than
// two nodes) and the caller should keep the monolithic path.
func (p *Plan) Trivial() bool { return p == nil || len(p.Nodes) < 2 }

// BuildPlan computes the decomposition plan of a valid tree. The
// returned plan is Trivial when the tree has no proper module meeting
// opts.MinEvents — the caller then falls back to one monolithic solve.
func BuildPlan(t *ft.Tree, opts Options) (*Plan, error) {
	minEvents := opts.MinEvents
	if minEvents < 1 {
		minEvents = DefaultMinEvents
	}

	// Modules validates the tree; nothing below validates again.
	modules, err := t.Modules()
	if err != nil {
		return nil, err
	}
	isModule := make(map[string]bool, len(modules))
	for _, id := range modules {
		isModule[id] = true
	}

	// Count real events in every module's subtree (shared nodes counted
	// once) in one pass from the top. A module's subtree is entered
	// only through the module, so no node of it is seen before the walk
	// reaches the module, and everything first seen below it is its own.
	events := make(map[string]int, len(modules))
	seen := make(map[string]bool, t.NumGates()+t.NumEvents())
	var count func(id string) int
	count = func(id string) int {
		if seen[id] {
			return 0
		}
		seen[id] = true
		g := t.Gate(id)
		if g == nil {
			return 1
		}
		n := 0
		for _, in := range g.Inputs {
			n += count(in)
		}
		if isModule[id] {
			events[id] = n
		}
		return n
	}
	count(t.Top())

	// Select the modules that become plan nodes: the top always, proper
	// modules only when their whole subtree is big enough to pay for a
	// separate solve.
	selected := map[string]bool{t.Top(): true}
	for _, id := range modules {
		if events[id] >= minEvents {
			selected[id] = true
		}
	}

	plan := &Plan{Nodes: make(map[string]*PlanNode), Root: t.Top()}
	// Build quotient nodes from the top down; buildNode recurses into
	// the selected modules it turns into pseudo-events. The regions the
	// quotients copy are disjoint, so one seen set serves them all.
	clear(seen)
	if err := buildNode(t, t.Top(), "", selected, seen, plan); err != nil {
		return nil, err
	}
	// Bottom-up order by post-order over the child DAG.
	var post func(id string)
	post = func(id string) {
		for _, c := range plan.Nodes[id].Children {
			post(c)
		}
		plan.Order = append(plan.Order, id)
	}
	post(plan.Root)
	for _, n := range plan.Nodes {
		plan.TotalEvents += n.Events
	}
	return plan, nil
}

// buildNode constructs the quotient tree rooted at the module gate
// root, descending into nested selected modules as separate nodes.
// seen holds the nodes already copied into some quotient; root itself
// is in it when the parent quotient has just made it a pseudo-event.
func buildNode(t *ft.Tree, root, parent string, selected, seen map[string]bool, plan *Plan) error {
	node := &PlanNode{ID: root, Parent: parent, Tree: ft.New(t.Name() + "/" + root)}
	plan.Nodes[root] = node

	var copyNode func(id string) error
	copyNode = func(id string) error {
		if id != root && seen[id] {
			return nil
		}
		seen[id] = true
		if id != root && selected[id] {
			// Nested module: pseudo-event in this quotient, own node in
			// the plan. The gate id is free to reuse as an event id
			// because the gate itself is not copied here.
			node.Children = append(node.Children, id)
			if err := node.Tree.AddEvent(id, pseudoProbPlaceholder); err != nil {
				return err
			}
			return buildNode(t, id, root, selected, seen, plan)
		}
		if e := t.Event(id); e != nil {
			node.Events++
			return node.Tree.AddEventDesc(e.ID, e.Description, e.Prob)
		}
		g := t.Gate(id)
		for _, in := range g.Inputs {
			if err := copyNode(in); err != nil {
				return err
			}
		}
		return node.Tree.AddGate(g.ID, g.Description, g.Type, g.K, g.Inputs...)
	}
	if err := copyNode(root); err != nil {
		return fmt.Errorf("decomp: quotient for module %q: %w", root, err)
	}
	// A module's subtree is self-contained, so the quotient is valid
	// by construction; its solve validates it once before encoding.
	node.Tree.SetTop(root)
	sort.Strings(node.Children)
	return nil
}

// Expand substitutes pseudo-events in the per-node cut sets into one
// flat cut set of real basic events, starting from the root node's
// set. cutSets maps node id to that node's quotient-level cut set.
func (p *Plan) Expand(cutSets map[string][]string) []string {
	var out []string
	var expand func(nodeID string)
	expand = func(nodeID string) {
		node := p.Nodes[nodeID]
		children := make(map[string]bool, len(node.Children))
		for _, c := range node.Children {
			children[c] = true
		}
		for _, id := range cutSets[nodeID] {
			if children[id] {
				expand(id)
				continue
			}
			out = append(out, id)
		}
	}
	expand(p.Root)
	sort.Strings(out)
	return out
}
