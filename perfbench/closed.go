package main

import (
	"runtime"
	"time"

	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/decomp"
	"mpmcs4fta/internal/gen"
)

// opSample is one timed, checked operation.
type opSample struct {
	ms      float64
	allocMB float64
	ok      bool
}

// analyze runs the workload's public entry point on one input with
// default options: core.Analyze for one cut set, core.AnalyzeTopK
// otherwise.
func analyze(guard *opGuard, in *input, opts core.Options) ([]*core.Solution, time.Duration, error) {
	ctx, release := guard.context()
	defer release()
	start := time.Now()
	if in.k == 1 {
		sol, err := core.Analyze(ctx, in.tree, opts)
		if err != nil {
			return nil, time.Since(start), err
		}
		return []*core.Solution{sol}, time.Since(start), nil
	}
	sols, err := core.AnalyzeTopK(ctx, in.tree, in.k, opts)
	return sols, time.Since(start), err
}

// measureOp times and checks one operation, with its allocation.
func measureOp(guard *opGuard, in *input, res *result) opSample {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sols, d, err := analyze(guard, in, core.Options{})
	runtime.ReadMemStats(&after)
	o := check(in, sols, err)
	res.tally(o)
	return opSample{ms: ms(d), allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), ok: o.err == nil}
}

// measureLoop runs every input once per pass, one client in a closed
// loop. With passes > 0 it makes exactly that many passes. Otherwise it
// always makes one whole pass and starts another only while the last
// pass still fits in the budget. Either way every input is measured
// equally often and a faster build measures the same input set, not a
// longer prefix of it.
func measureLoop(guard *opGuard, inputs []*input, budget time.Duration, passes int, res *result) ([]opSample, time.Duration) {
	var samples []opSample
	start := time.Now()
	for p := 1; len(inputs) > 0; p++ {
		passStart := time.Now()
		for _, in := range inputs {
			samples = append(samples, measureOp(guard, in, res))
		}
		if passes > 0 {
			if p == passes {
				break
			}
		} else if pass := time.Since(passStart); time.Since(start)+pass > budget {
			break
		}
	}
	return samples, time.Since(start)
}

// fastestPerInput returns each of n inputs' fastest time over the
// passes measureLoop made; sample i belongs to input i mod n.
func fastestPerInput(samples []opSample, n int) []float64 {
	best := make([]float64, 0, n)
	for i, s := range samples {
		if i < n {
			best = append(best, s.ms)
		} else if j := i % n; s.ms < best[j] {
			best[j] = s.ms
		}
	}
	return best
}

// setupClosedLoop generates the inputs and warms up on a fixed modular
// tree outside the inputs (so the warm-up costs the same for every
// seed; a random tree of the same size varies more from run to run),
// setup_reps times. It returns the inputs, setup_s (process start to
// the end of the median repetition) and the cold setup (process start
// to the end of the first repetition).
func setupClosedLoop(cfg config, guard *opGuard, k int) ([]*input, float64, float64, error) {
	lead := time.Since(processStart).Seconds()
	var inputs []*input
	var reps []float64
	for r := 0; r < cfg.spec.SetupReps; r++ {
		start := time.Now()
		var err error
		inputs, err = buildInputs(cfg.work, cfg.seed, k, cfg.small, true)
		if err != nil {
			return nil, 0, 0, err
		}
		warm, err := gen.Modular(gen.ModularConfig{Modules: 4, EventsPerModule: 50, AndBias: 0.35, VotingFrac: 0.15, Seed: -1})
		if err != nil {
			return nil, 0, 0, err
		}
		analyze(guard, &input{id: "warm-up", tree: warm, k: k}, core.Options{}) //nolint:errcheck // warm-up answer is not measured
		reps = append(reps, time.Since(start).Seconds())
	}
	return inputs, lead + median(reps), lead + reps[0], nil
}

// runClosedLoop is analyze-large and rank-topk: one client, closed
// loop, the workload's fixed number of passes over the n-event inputs
// and then passes over their n/4 twins for the rest of the budget.
// latency_p50_ms is the median over inputs of each input's fastest
// pass, so a slow spell of the machine during one pass does not move
// it; the tail, throughput and scaling_4x use every sample.
func runClosedLoop(cfg config, guard *opGuard) (*result, error) {
	res := newResult()
	k := 1
	if cfg.workload == "rank-topk" {
		k = cfg.work.TopKK
	}
	inputs, setup, cold, err := setupClosedLoop(cfg, guard, k)
	if err != nil {
		return nil, err
	}
	if err := attachReferences(inputs, cfg.tamper, res); err != nil {
		return nil, err
	}
	reportProperties(inputs, res)

	budget := time.Duration(cfg.seconds * float64(time.Second))
	share := cfg.work.MeasuredShare
	big, wall := measureLoop(guard, inputs, time.Duration(float64(budget)*share), cfg.work.Passes, res)
	var twins []*input
	for _, in := range inputs {
		if in.twin != nil {
			twins = append(twins, in.twin)
		}
	}
	small, _ := measureLoop(guard, twins, time.Duration(float64(budget)*(1-share)), 0, res)

	var lat, alloc []float64
	okCount := 0
	for _, s := range big {
		lat = append(lat, s.ms)
		alloc = append(alloc, s.allocMB)
		if s.ok {
			okCount++
		}
	}
	var smallLat []float64
	for _, s := range small {
		smallLat = append(smallLat, s.ms)
	}
	p50 := median(fastestPerInput(big, len(inputs)))
	tailV, tailP := tail(lat)
	perSec := float64(okCount) / wall.Seconds()
	res.set("setup_s", setup, "s")
	res.set("setup_cold_s", cold, "s")
	res.set("analyses_per_s", perSec, "1/s")
	res.set("max_rate_rps", perSec, "1/s")
	res.set("latency_p50_ms", p50, "ms")
	res.set("latency_tail_ms", tailV, "ms")
	res.set("scaling_4x", ratio(median(lat), median(smallLat)), "ratio")
	res.set("alloc_mb_per_op", median(alloc), "MB")
	res.note("latency_tail_ms is p%.1f over %d analyses (%d passes over %d inputs, %d beyond it); scaling_4x over %d twin analyses (%d passes); guard trips: %d",
		tailP, len(lat), len(big)/len(inputs), len(inputs), min(10, len(lat)-1), len(smallLat), len(small)/max(len(twins), 1), guard.tripped.Load())
	return res, nil
}

// reportProperties prints the share of inputs with each property an
// optimisation might key on.
func reportProperties(inputs []*input, res *result) {
	modular, single := 0, 0
	var sizes []float64
	gates, voting := 0, 0
	for _, in := range inputs {
		if plan, err := decomp.BuildPlan(in.tree, decomp.Options{}); err == nil && !plan.Trivial() {
			modular++
		}
		if in.refSize == 1 {
			single++
		}
		sizes = append(sizes, float64(in.refSize))
		st := in.tree.Stats()
		gates += st.Gates
		voting += st.VotingGates
	}
	s := sorted(sizes)
	res.note("properties over %d inputs: >=2 plannable modules %.0f%%, single-event MPMCS %.0f%%, MPMCS size median %g max %g, voting gates %.1f%% of %d gates",
		len(inputs), 100*share(modular, len(inputs)), 100*share(single, len(inputs)), median(sizes), s[len(s)-1], 100*share(voting, gates), gates)
}
