package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/gen"
)

// spec is the parsed spec.json.
type spec struct {
	HeapCeilingMB int                  `json:"heap_ceiling_mb"`
	OpLimitMS     int                  `json:"op_limit_ms"`
	SetupReps     int                  `json:"setup_reps"`
	Workloads     map[string]*workload `json:"workloads"`
	EndToEnd      []metricSpec         `json:"end_to_end"`
	PerLayer      []metricSpec         `json:"per_layer"`
}

// metricSpec names one reported metric and its unit; spec.json also
// says what is timed and which end-to-end metric it should move.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// scaleDivisor sizes the twins behind scaling_4x and sat.setup_4x: a
// generated tree's twin has its events divided by it.
const scaleDivisor = 4

// engineCap bounds each engine's solo run in the traced run.
const engineCap = 1500 * time.Millisecond

// workload holds one workload's generator parameters and limits.
type workload struct {
	DefaultSeed    int64      `json:"default_seed"`
	MeasuredShare  float64    `json:"measured_share"`
	Passes         int        `json:"passes"`
	ProbeInputs    int        `json:"probe_inputs"`
	TopKK          int        `json:"topk_k"`
	LatencyLimitMS float64    `json:"latency_limit_ms"`
	RatesRPS       []float64  `json:"rates_rps"`
	NominalRPS     float64    `json:"nominal_rps"`
	AnalyzeShare   float64    `json:"analyze_share"`
	ZipfS          float64    `json:"zipf_s"`
	TimeoutMillis  int        `json:"timeout_millis"`
	Copies         int        `json:"copies"`
	Trees          []treeSpec `json:"trees"`
}

// treeSpec describes one input tree: a generator and its parameters.
// The seed comes from the run, never from the spec.
type treeSpec struct {
	Gen        string  `json:"gen"`
	Events     int     `json:"events"`
	Modules    int     `json:"modules"`
	AndBias    float64 `json:"and_bias"`
	VotingFrac float64 `json:"voting_frac"`
	K          int     `json:"k"`
}

func loadSpec() (*spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("parse spec.json: %w", err)
	}
	if s.SetupReps < 1 || s.HeapCeilingMB < 1 || s.OpLimitMS < 1 {
		return nil, fmt.Errorf("spec.json: setup_reps, heap_ceiling_mb and op_limit_ms must be positive")
	}
	for name, w := range s.Workloads {
		if w.Copies < 1 || len(w.Trees) == 0 || w.ProbeInputs < 1 {
			return nil, fmt.Errorf("spec.json: workload %s needs trees, copies >= 1 and probe_inputs >= 1", name)
		}
	}
	return &s, nil
}

func (s *spec) workloadNames() []string {
	names := make([]string, 0, len(s.Workloads))
	for name := range s.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// treeSeed derives tree j's generator seed from the workload seed.
func treeSeed(seed int64, j int) int64 { return seed*7919 + int64(j)*104729 }

// generated reports whether the spec draws a seeded tree (and so has
// an n/scaleDivisor twin); the named literature trees are fixed.
func (ts treeSpec) generated() bool { return ts.Gen == "random" || ts.Gen == "modular" }

// build generates the tree. divisor > 1 builds the twin with
// events/divisor basic events from the same seed.
func (ts treeSpec) build(seed int64, divisor int) (*ft.Tree, error) {
	events := ts.Events / divisor
	switch ts.Gen {
	case "random":
		return gen.Random(gen.Config{Events: events, AndBias: ts.AndBias, VotingFrac: ts.VotingFrac, Seed: seed})
	case "modular":
		return gen.Modular(gen.ModularConfig{Modules: ts.Modules, EventsPerModule: events / ts.Modules,
			AndBias: ts.AndBias, VotingFrac: ts.VotingFrac, Seed: seed})
	case "fps":
		return gen.FPS(), nil
	case "pressuretank":
		return gen.PressureTank(), nil
	case "scada":
		return gen.RedundantSCADA(), nil
	case "reactor":
		return gen.ReactorProtection(), nil
	case "railway":
		return gen.RailwayCrossing(), nil
	}
	return nil, fmt.Errorf("spec.json: unknown generator %q", ts.Gen)
}

// input is one generated tree with its identity, reference answer and
// optional twin.
type input struct {
	id   string
	tree *ft.Tree
	k    int       // cut sets to enumerate (1 = plain Analyze)
	ref  []float64 // reference ranked probabilities, filled after setup
	// refSize is the reference MPMCS's size.
	refSize int
	twin    *input // the n/scaleDivisor tree from the same seed, if generated
}

// buildInputs generates the workload's trees for one seed: the spec's
// tree list, copies times over, each copy from fresh seeds. Each input
// asks for k cut sets unless its spec names its own. small shrinks
// every generated tree to a smoke-test size.
func buildInputs(w *workload, seed int64, k int, small, withTwins bool) ([]*input, error) {
	out := make([]*input, 0, w.Copies*len(w.Trees))
	for j := 0; j < w.Copies*len(w.Trees); j++ {
		ts := w.Trees[j%len(w.Trees)]
		if !ts.generated() && j >= len(w.Trees) {
			continue // a fixed literature tree appears once
		}
		if small && ts.generated() {
			ts.Events = 8 * max(ts.Modules, 4)
		}
		s := treeSeed(seed, j)
		tree, err := ts.build(s, 1)
		if err != nil {
			return nil, err
		}
		in := &input{id: fmt.Sprintf("%s#%d", tree.Name(), j), tree: tree, k: k}
		if ts.K > 0 {
			in.k = ts.K
		}
		if withTwins && ts.generated() {
			twin, err := ts.build(s, scaleDivisor)
			if err != nil {
				return nil, err
			}
			in.twin = &input{id: in.id + "/twin", tree: twin, k: in.k}
		}
		out = append(out, in)
	}
	return out, nil
}
