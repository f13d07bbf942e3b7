package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mpmcs4fta/internal/boolexpr"
	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/decomp"
	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/maxsat"
	"mpmcs4fta/internal/obs"
	"mpmcs4fta/internal/portfolio"
	"mpmcs4fta/internal/sat"
)

// span is one recorded interval. Spans of one input share Input;
// Parent is -1 for an input's root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Input   string  `json:"input"`
	StartMS float64 `json:"startMillis"`
	EndMS   float64 `json:"endMillis"`
}

// recorder keeps spans in memory until the run ends. It is used from
// one goroutine.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) now() float64 { return ms(time.Since(r.t0)) }

func (r *recorder) begin(parent int, name, input string) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Input: input, StartMS: r.now()})
	return id
}

func (r *recorder) end(id int) float64 {
	r.spans[id].EndMS = r.now()
	return r.spans[id].EndMS - r.spans[id].StartMS
}

// timed records f as a child span of parent and returns its duration.
func (r *recorder) timed(parent int, name, input string, f func()) float64 {
	id := r.begin(parent, name, input)
	f()
	return r.end(id)
}

// importTracer re-parents the spans core emitted through
// core.Options.Tracer (whose clock started at base) under parent.
func (r *recorder) importTracer(parent int, input string, base float64, recs []*obs.SpanRecord) {
	for _, rec := range recs {
		id := len(r.spans)
		start := base + rec.StartMS
		r.spans = append(r.spans, span{ID: id, Parent: parent, Name: "core/" + rec.Name, Input: input,
			StartMS: start, EndMS: start + rec.DurationMS})
		r.importTracer(id, input, base, rec.Children)
	}
}

// selfTimes sums, per span name, each span's duration minus the part
// of it its children cover.
func (r *recorder) selfTimes() map[string]float64 {
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range r.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartMS < kids[j].StartMS })
		covered, reach := 0.0, s.StartMS
		for _, k := range kids {
			lo, hi := math.Max(k.StartMS, reach), math.Min(k.EndMS, s.EndMS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += s.EndMS - s.StartMS - covered
	}
	return out
}

// layerSamples collects per-layer observations across inputs.
type layerSamples map[string][]float64

func (l layerSamples) add(name string, v float64) { l[name] = append(l[name], v) }

func (l layerSamples) median(name string) float64 { return median(l[name]) }

// runTraced is the per-layer breakdown: for each input, the end-to-end
// call and, as its siblings, the public calls of every layer, each
// timed from outside the program.
func runTraced(cfg config, guard *opGuard) (*result, error) {
	res := newResult()
	rec := &recorder{t0: time.Now()}
	samples := layerSamples{}

	var probeInputs []*input
	if cfg.workload == "serve-mixed" {
		loadBudget := time.Duration(cfg.seconds * cfg.work.MeasuredShare * float64(time.Second))
		inputs, err := serveTraced(cfg, guard, loadBudget, res, samples)
		if err != nil {
			return nil, err
		}
		probeInputs = inputs
	} else {
		k := 1
		if cfg.workload == "rank-topk" {
			k = cfg.work.TopKK
		}
		inputs, err := buildInputs(cfg.work, cfg.seed, k, cfg.small, true)
		if err != nil {
			return nil, err
		}
		probeInputs = inputs
	}

	// The probed set is the first probe_inputs inputs, whatever the
	// build's speed, so every build's layer medians cover the same
	// inputs. References are computed per input just before its probe,
	// outside every span.
	probeInputs = probeInputs[:min(cfg.work.ProbeInputs, len(probeInputs))]
	sources := map[string]int{}
	for _, in := range probeInputs {
		if in.ref == nil {
			if err := referenceInputs([]*input{in}, cfg.tamper, sources); err != nil {
				return nil, err
			}
		}
		probe(guard, rec, in, cfg.work.TopKK, res, samples)
	}
	if len(sources) > 0 {
		res.note("references: %d from the BDD oracle, %d from two agreeing engines, tampered=%v", sources["bdd"], sources["engines"], cfg.tamper)
	}
	res.note("traced run probed %d inputs", len(probeInputs))
	setLayerMetrics(cfg, res, samples, len(probeInputs))
	if err := writeSpans(cfg, rec, res); err != nil {
		return nil, err
	}
	return res, nil
}

// probe runs one input through the end-to-end call and every layer.
func probe(guard *opGuard, rec *recorder, in *input, topkK int, res *result, samples layerSamples) {
	root := rec.begin(-1, "input", in.id)
	defer rec.end(root)
	tree, id := in.tree, in.id
	ctx, release := guard.context()
	defer release()

	// The end-to-end call, traced through core's own tracer, then the
	// same call untraced (for the tracing overhead) and monolithic.
	traced := func(name string, opts core.Options) (*core.Solution, float64, []*obs.SpanRecord, error) {
		tr := obs.NewJSONTracer()
		opts.Tracer = tr
		base := rec.now()
		var sol *core.Solution
		var err error
		spanID := rec.begin(root, name, id)
		sol, err = core.Analyze(ctx, tree, opts)
		d := rec.end(spanID)
		rec.importTracer(spanID, id, base, tr.Roots())
		return sol, d, tr.Roots(), err
	}
	sol, analyzeMS, _, err := traced("core.analyze", core.Options{})
	if in.k == 1 {
		res.tally(check(in, []*core.Solution{sol}, err))
	}
	samples.add("core.analyze_ms", analyzeMS)
	samples.add("untraced", rec.timed(root, "core.analyze.untraced", id, func() {
		core.Analyze(ctx, tree, core.Options{}) //nolint:errcheck // timing only; the traced call was checked
	}))
	_, monoMS, monoSpans, _ := traced("core.analyze.monolithic", core.Options{NoDecompose: true})
	samples.add("decomp.vs_monolithic", analyzeMS/monoMS)
	if d, ok := spanTotal(monoSpans, "decode"); ok {
		samples.add("core.decode_ms", d)
	}

	// ft, boolexpr and cnf: the steps core runs, called one by one.
	data, jerr := json.Marshal(tree)
	if jerr == nil {
		samples.add("ft.parse_ms", rec.timed(root, "ft.ReadJSON", id, func() {
			ft.ReadJSON(bytes.NewReader(data)) //nolint:errcheck // the tree round-trips by construction
		}))
	}
	samples.add("ft.hash_ms", rec.timed(root, "ft.CanonicalHash", id, func() { ft.CanonicalHash(tree) })) //nolint:errcheck // valid tree
	samples.add("ft.validate_ms", rec.timed(root, "ft.Validate", id, func() { tree.Validate() }))         //nolint:errcheck // valid tree
	var formula boolexpr.Expr
	samples.add("ft.formula_ms", rec.timed(root, "ft.Formula", id, func() { formula, _ = tree.Formula() }))
	samples.add("ft.modules_ms", rec.timed(root, "ft.Modules", id, func() { tree.Modules() })) //nolint:errcheck // valid tree
	if sol != nil {
		failed := map[string]bool{}
		for _, e := range sol.MPMCS {
			failed[e.ID] = true
		}
		samples.add("ft.eval_ms", rec.timed(root, "ft.Eval", id, func() { tree.Eval(failed) })) //nolint:errcheck // valid tree
	}
	var success boolexpr.Expr
	samples.add("boolexpr.dual_ms", rec.timed(root, "boolexpr.Dual", id, func() { success = boolexpr.Dual(formula) }))
	order := make([]string, 0, tree.NumEvents())
	for _, e := range tree.Events() {
		order = append(order, e.ID)
	}
	samples.add("cnf.encode_ms", rec.timed(root, "cnf.Tseitin", id, func() {
		cnf.Tseitin(boolexpr.Not{X: success}, cnf.TseitinOptions{VarOrder: order}) //nolint:errcheck // valid formula
	}))
	var steps *core.Steps
	samples.add("core.steps_ms", rec.timed(root, "core.BuildSteps", id, func() { steps, _ = core.BuildSteps(tree, core.Options{}) }))
	if steps == nil {
		return
	}
	inst := steps.Instance
	samples.add("cnf.vars", float64(inst.NumVars))
	samples.add("cnf.hard_clauses", float64(len(inst.Hard)))
	samples.add("cnf.soft_clauses", float64(len(inst.Soft)))

	var plan *decomp.Plan
	samples.add("decomp.plan_ms", rec.timed(root, "decomp.BuildPlan", id, func() { plan, _ = decomp.BuildPlan(tree, decomp.Options{}) }))
	if plan != nil {
		samples.add("decomp.nodes", float64(len(plan.Nodes)))
	}

	// portfolio, then each engine alone on the same monolithic instance.
	raceMS := rec.timed(root, "portfolio.Solve", id, func() {
		portfolio.Solve(ctx, inst, portfolio.DefaultEngines()) //nolint:errcheck // timing only
	})
	samples.add("portfolio.race_ms", raceMS)
	best, winner := math.Inf(1), ""
	for _, e := range portfolio.DefaultEngines() {
		ectx, cancel := context.WithTimeout(ctx, engineCap)
		var r maxsat.Result
		var eerr error
		d := rec.timed(root, "maxsat."+e.Name, id, func() { r, eerr = e.Solver.Solve(ectx, inst.Clone()) })
		cancel()
		samples.add("maxsat."+e.Name+".solve_ms", d)
		if eerr == nil && r.Status == maxsat.Optimal && d < best {
			best, winner = d, e.Name
		}
	}
	if winner != "" {
		samples.add("winner."+winner, 1)
		samples.add("portfolio.race_vs_best", raceMS/best)
	}

	// sat: the WMSU1 setup sequence, at n and on the n/4 twin.
	samples.add("sat.setup_ms", rec.timed(root, "sat.setup", id, func() { satSetup(inst) }))
	if in.twin != nil {
		if twinSteps, err := core.BuildSteps(in.twin.tree, core.Options{}); err == nil {
			samples.add("sat.setup_twin_ms", rec.timed(root, "sat.setup.twin", id, func() { satSetup(twinSteps.Instance) }))
		}
	}

	// Deterministic solver counters: a sequential monolithic run.
	if seq, err := core.Analyze(ctx, tree, core.Options{Sequential: true, NoDecompose: true}); err == nil {
		samples.add("sat.decisions", float64(seq.Stats.Solver.Decisions))
		samples.add("sat.propagations", float64(seq.Stats.Solver.Propagations))
		samples.add("sat.conflicts", float64(seq.Stats.Solver.Conflicts))
	}

	// core top-k: one enumeration, time per returned set. An input that
	// asks for top-k is checked here; the others enumerate topkK sets.
	k := in.k
	if k == 1 {
		k = topkK
	}
	var sols []*core.Solution
	var topkErr error
	d := rec.timed(root, "core.AnalyzeTopK", id, func() { sols, topkErr = core.AnalyzeTopK(ctx, tree, k, core.Options{}) })
	if in.k > 1 {
		res.tally(check(in, sols, topkErr))
	}
	if len(sols) > 0 {
		samples.add("core.topk_round_ms", d/float64(len(sols)))
	}
}

// satSetup replays WMSU1's solver setup: sat.New, one AddClause per
// hard clause, then AddVars(1) and AddClause per soft clause.
func satSetup(inst *cnf.WCNF) {
	s := sat.New(inst.NumVars, sat.Options{})
	for _, c := range inst.Hard {
		s.AddClause(c...)
	}
	for _, soft := range inst.Soft {
		sel := cnf.Lit(s.AddVars(1))
		s.AddClause(append(append(cnf.Clause{}, soft.Clause...), sel)...)
	}
}

// spanTotal sums the durations of every span called name.
func spanTotal(recs []*obs.SpanRecord, name string) (float64, bool) {
	total, found := 0.0, false
	for _, r := range recs {
		if r.Name == name {
			total += r.DurationMS
			found = true
		}
		if d, ok := spanTotal(r.Children, name); ok {
			total += d
			found = true
		}
	}
	return total, found
}

// setLayerMetrics reduces the samples to the per-layer metrics named in
// spec.json.
func setLayerMetrics(cfg config, res *result, samples layerSamples, probed int) {
	derived := map[string]float64{
		"sat.setup_4x":            ratio(samples.median("sat.setup_ms"), samples.median("sat.setup_twin_ms")),
		"obs.trace_overhead_frac": ratio(samples.median("core.analyze_ms"), samples.median("untraced")) - 1,
	}
	for _, e := range portfolio.DefaultEngines() {
		derived["maxsat."+e.Name+".fastest_frac"] = share(len(samples["winner."+e.Name]), probed)
	}
	for _, m := range cfg.spec.PerLayer {
		v, ok := derived[m.Name]
		if !ok {
			v = samples.median(m.Name)
		}
		res.set(m.Name, v, m.Unit)
	}
	res.note("engine solve times are capped at %v; a capped engine's solve_ms reads the cap", engineCap)
}

// writeSpans writes every span to the output directory and prints the
// self time per span name.
func writeSpans(cfg config, rec *recorder, res *result) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fmt.Errorf("create %s: %w", cfg.outDir, err)
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := writeJSON(f, rec.spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	self := rec.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	res.note("%d spans written to %s; self time per span name:", len(rec.spans), path)
	for _, name := range names {
		res.note("  self %-36s %12.3f ms", name, self[name])
	}
	return nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return nil
}
