// Command perfbench is the repository's benchmark: it runs one named
// workload on inputs generated from a seed, checks every answer against
// an independently computed reference, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics of a separate traced
// run) ending with one JSON result line.
//
//	go run . -workload analyze-large -seed 1 -seconds 20 -trace 0
//
// Workload parameters, metric names and the layer map live in
// spec.json, which is embedded at build time.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// processStart approximates process start for setup_s; package
// variables initialise before main runs.
var processStart = time.Now()

//go:embed spec.json
var specJSON []byte

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool   // smoke-test inputs: tiny trees, short phases
	tamper   bool   // corrupt every reference, to prove the checks fire
	outDir   string // where the traced run writes its spans
	spec     *spec
	work     *workload
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout *os.File) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name (see spec.json)")
	fs.Int64Var(&cfg.seed, "seed", 0, "workload seed (0 selects the workload's default seed)")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	fs.BoolVar(&cfg.small, "small", false, "use tiny inputs (smoke test)")
	fs.BoolVar(&cfg.tamper, "tamper", false, "corrupt the references (smoke test: must fail)")
	fs.StringVar(&cfg.outDir, "out", ".bench_build", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	cfg.spec = sp
	w, ok := sp.Workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", cfg.workload, strings.Join(sp.workloadNames(), ", "))
		return 2
	}
	cfg.work = w
	if cfg.seed == 0 {
		cfg.seed = w.DefaultSeed
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		return 2
	}

	printEnv(stdout, cfg)
	guard := startOpGuard(uint64(sp.HeapCeilingMB)<<20, time.Duration(sp.OpLimitMS)*time.Millisecond)
	var res *result
	switch {
	case cfg.trace:
		res, err = runTraced(cfg, guard)
	case cfg.workload == "serve-mixed":
		res, err = runServeMixed(cfg, guard)
	default:
		res, err = runClosedLoop(cfg, guard)
	}
	guard.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.print(stdout, cfg) {
		return 1
	}
	return 0
}

// printEnv records what the numbers were measured on.
func printEnv(out *os.File, cfg config) {
	commit, goVersion := "unknown", runtime.Version()
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(out, "# workload=%s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), goVersion, commit)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the result line plus the human-readable
// detail printed above it.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	details   []string
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.details = append(r.details, fmt.Sprintf(format, args...))
}

// tally folds one checked operation into the counts.
func (r *result) tally(o outcome) {
	r.attempted++
	if o.err != nil {
		r.failed++
		if o.wrong {
			r.correct = false
		}
		if len(r.details) < 40 {
			r.note("FAIL %s: %v", o.input, o.err)
		}
	}
}

// print writes the details, a name/value/unit table, and the result
// line, which must be the last line of standard output. It reports
// whether the run was correct.
func (r *result) print(out *os.File, cfg config) bool {
	for _, d := range r.details {
		fmt.Fprintln(out, "#", d)
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(out, "%-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(out, "%-34s %14.6g %s\n", "failed_frac", frac, "ratio")
	// The result line carries exactly the metrics BENCHMARK.json lists
	// for this kind of run. An end-to-end metric that could not be
	// measured fails the run; a per-layer one reads 0 with a note.
	listed := cfg.spec.EndToEnd
	if cfg.trace {
		listed = cfg.spec.PerLayer
	}
	gated := map[string]metric{}
	correct := r.correct
	for _, m := range listed {
		v, ok := r.metrics[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(out, "# metric %s was not measured on this run\n", m.Name)
			correct = correct && cfg.trace
			v = metric{Value: 0, Unit: m.Unit}
		}
		gated[m.Name] = v
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted, r.failed, gated})
	if err != nil {
		panic(err) // only finite floats and strings: cannot fail
	}
	fmt.Fprintln(out, string(line))
	return correct
}
