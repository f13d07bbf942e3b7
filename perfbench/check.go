package main

import (
	"context"
	"fmt"
	"time"

	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/portfolio"
)

// bddMaxEvents bounds the trees the BDD oracle is tried on. The oracle
// cannot be cancelled, and above this size it may overflow
// bdd.DefaultNodeLimit after seconds or, on some 400-event trees, run
// for minutes inside the cut-set family without reaching the limit.
const bddMaxEvents = 300

// referenceEngines are the two engines that must agree when the BDD
// oracle does not fit.
var referenceEngines = [2]string{"wmsu1", "wmsu1-strat"}

// outcome is one checked operation.
type outcome struct {
	input string
	err   error // nil when the answer is OPTIMAL, verified and matches the reference
	wrong bool  // the answer claimed optimality but disagreed or failed verification
}

// reference computes the ranked reference probabilities of the k most
// probable minimal cut sets: the BDD oracle where it fits, otherwise
// two different engines run alone on the monolithic instance, which
// must agree. It returns the MPMCS size and the oracle used.
func reference(tree *ft.Tree, k int) ([]float64, int, string, error) {
	if tree.NumEvents() <= bddMaxEvents {
		var sols []*core.Solution
		var err error
		if k == 1 {
			var sol *core.Solution
			if sol, err = core.AnalyzeBDD(tree, core.Options{}); err == nil {
				sols = []*core.Solution{sol}
			}
		} else {
			sols, err = core.AnalyzeTopKBDD(tree, k, core.Options{})
		}
		if err == nil {
			return probabilities(sols), len(sols[0].MPMCS), "bdd", nil
		}
	}
	var runs [2][]float64
	size := 0
	for i, name := range referenceEngines {
		opts := core.Options{Sequential: true, NoDecompose: true, Engines: engineNamed(name)}
		sols, err := core.AnalyzeTopK(context.Background(), tree, k, opts)
		if err != nil {
			return nil, 0, "", fmt.Errorf("reference %s on %s: %w", name, tree.Name(), err)
		}
		for _, s := range sols {
			if s.Status != "OPTIMAL" {
				return nil, 0, "", fmt.Errorf("reference %s on %s: status %s", name, tree.Name(), s.Status)
			}
		}
		runs[i] = probabilities(sols)
		size = len(sols[0].MPMCS)
	}
	if err := sameRanking(runs[0], runs[1]); err != nil {
		return nil, 0, "", fmt.Errorf("reference engines disagree on %s: %w", tree.Name(), err)
	}
	return runs[0], size, "engines", nil
}

func engineNamed(name string) []portfolio.Engine {
	for _, e := range portfolio.DefaultEngines() {
		if e.Name == name {
			return []portfolio.Engine{e}
		}
	}
	panic("unknown engine " + name)
}

func probabilities(sols []*core.Solution) []float64 {
	out := make([]float64, len(sols))
	for i, s := range sols {
		out[i] = s.Probability
	}
	return out
}

// sameRanking compares two ranked probability sequences within the
// relative tolerance; sets are never compared, since equal-probability
// ties are legal.
func sameRanking(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d cut sets, reference has %d", len(got), len(want))
	}
	for i := range got {
		if !relClose(got[i], want[i]) {
			return fmt.Errorf("rank %d probability %.17g, reference %.17g", i+1, got[i], want[i])
		}
	}
	return nil
}

// check classifies one measured answer against the input's reference.
func check(in *input, sols []*core.Solution, err error) outcome {
	o := outcome{input: in.id}
	if err != nil {
		o.err = err
		return o
	}
	for _, s := range sols {
		if s.Status != "OPTIMAL" {
			o.err = fmt.Errorf("status %s", s.Status)
			return o
		}
	}
	for _, s := range sols {
		if verr := core.VerifySolution(in.tree, s); verr != nil {
			o.err, o.wrong = verr, true
			return o
		}
	}
	if rerr := sameRanking(probabilities(sols), in.ref); rerr != nil {
		o.err, o.wrong = rerr, true
	}
	return o
}

// attachReferences fills in.ref for every input and twin outside any
// timed phase, and notes which oracles answered.
func attachReferences(inputs []*input, tamper bool, res *result) error {
	start := time.Now()
	sources := map[string]int{}
	if err := referenceInputs(withTwins(inputs), tamper, sources); err != nil {
		return err
	}
	res.note("references: %d from the BDD oracle, %d from two agreeing engines (%s, %s) in %.1f s, tampered=%v",
		sources["bdd"], sources["engines"], referenceEngines[0], referenceEngines[1], time.Since(start).Seconds(), tamper)
	return nil
}

// referenceInputs fills in.ref for each input, counting the oracles
// used. tamper scales every reference so that no answer can match.
func referenceInputs(inputs []*input, tamper bool, sources map[string]int) error {
	for _, in := range inputs {
		ref, size, source, err := reference(in.tree, in.k)
		if err != nil {
			return err
		}
		if tamper {
			for i := range ref {
				ref[i] *= 1 + 1e-6
			}
		}
		in.ref, in.refSize = ref, size
		sources[source]++
	}
	return nil
}

// withTwins lists the inputs followed by their twins.
func withTwins(inputs []*input) []*input {
	out := append([]*input(nil), inputs...)
	for _, in := range inputs {
		if in.twin != nil {
			out = append(out, in.twin)
		}
	}
	return out
}
