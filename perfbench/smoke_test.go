package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/gen"
	"mpmcs4fta/internal/serve"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runSmall runs the benchmark on tiny inputs and returns its exit code,
// its standard output and the parsed result line.
func runSmall(t *testing.T, args ...string) (int, string, resultLine) {
	t.Helper()
	dir := t.TempDir()
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	code := run(append([]string{"-seconds", "1", "-small", "-out", dir}, args...), out)
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, data)
	}
	return code, string(data), res
}

// TestEveryMetricPrinted runs each workload, untraced and traced, and
// checks that the result line carries exactly the metrics BENCHMARK.json
// lists, with their units, and that the table prints each by name.
func TestEveryMetricPrinted(t *testing.T) {
	b := loadBenchmarkFile(t)
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		for _, trace := range []string{"0", "1"} {
			listed, fromSpec := b.EndToEnd, spec.EndToEnd
			if trace == "1" {
				listed, fromSpec = b.PerLayer, spec.PerLayer
			}
			if len(listed) != len(fromSpec) {
				t.Fatalf("BENCHMARK.json lists %d metrics, spec.json %d", len(listed), len(fromSpec))
			}
			code, stdout, res := runSmall(t, "-workload", w.Name, "-trace", trace)
			if code != 0 || !res.Correct || res.Attempted == 0 {
				t.Fatalf("%s trace=%s: exit %d, result %+v\n%s", w.Name, trace, code, res, stdout)
			}
			if res.Failed != 0 {
				// Non-OPTIMAL answers are the program's, and rare; the
				// run stays correct as long as no answer is wrong.
				t.Logf("%s trace=%s: %d of %d answers failed\n%s", w.Name, trace, res.Failed, res.Attempted, stdout)
			}
			if len(res.Metrics) != len(listed) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(listed))
			}
			for i, m := range listed {
				if fromSpec[i].Name != m.Name || fromSpec[i].Unit != m.Unit {
					t.Errorf("BENCHMARK.json metric %s/%s, spec.json %s/%s", m.Name, m.Unit, fromSpec[i].Name, fromSpec[i].Unit)
				}
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(stdout, "\n"+m.Name+" ") {
					t.Errorf("%s trace=%s: table does not print %s", w.Name, trace, m.Name)
				}
			}
		}
	}
}

// TestTamperedReferenceFails corrupts every reference: each answer must
// count as failed and the command must exit non-zero.
func TestTamperedReferenceFails(t *testing.T) {
	for _, w := range loadBenchmarkFile(t).Workloads {
		code, stdout, res := runSmall(t, "-workload", w.Name, "-tamper")
		if code == 0 || res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
			t.Errorf("%s with tampered references: exit %d, result correct=%v failed=%d/%d\n%s",
				w.Name, code, res.Correct, res.Failed, res.Attempted, stdout)
		}
		frac := ""
		for _, line := range strings.Split(stdout, "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "failed_frac" {
				frac = f[1]
			}
		}
		if frac != "1" {
			t.Errorf("%s: failed_frac reads %q with tampered references, want 1", w.Name, frac)
		}
	}
}

// TestFailedRequestIsNotWrong feeds the serve-layer accounting a
// verified miss, a verified hit, a 504 NO_ANSWER document and a request
// that ended without a document. The two failures count in failed, the
// cache cross-check holds, and the run stays correct because no answer
// is wrong. A /metrics count the responses cannot explain still fails.
func TestFailedRequestIsNotWrong(t *testing.T) {
	in := &input{id: "fps", tree: gen.FPS(), k: 1}
	if err := referenceInputs([]*input{in}, false, map[string]int{}); err != nil {
		t.Fatal(err)
	}
	sol, err := core.Analyze(context.Background(), in.tree, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(sol)
	if err != nil {
		t.Fatal(err)
	}
	doc := func(httpStatus int, d serve.Document) *reply {
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		r := &reply{req: &request{}, httpStatus: httpStatus}
		r.o = checkDocument(in, r, data, false)
		return r
	}
	replies := []*reply{
		doc(http.StatusOK, serve.Document{Hash: "h", Status: serve.StatusOptimal, Solution: raw}),
		doc(http.StatusOK, serve.Document{Hash: "h", Status: serve.StatusOptimal, Cached: true, Solution: raw}),
		doc(http.StatusGatewayTimeout, serve.Document{Hash: "h", Status: serve.StatusNoAnswer, Error: "expired"}),
		{req: &request{}, o: outcome{input: in.id, err: context.Canceled}},
	}
	for _, scraped := range []struct {
		hits, misses int64
		correct      bool
	}{
		{1, 2, true}, // the request without a document never reached the lookup
		{1, 3, true}, // it did, and missed
		{2, 2, true}, // it did, and hit
		{2, 3, false},
		{0, 2, false},
	} {
		res := newResult()
		for _, r := range replies {
			res.tally(r.o)
		}
		serveReplyMetrics(replies, scraped.hits, scraped.misses, res, layerSamples{})
		if res.failed != 2 || res.attempted != 4 || res.correct != scraped.correct {
			t.Errorf("scraped %d hits / %d misses: failed %d/%d correct=%v, want 2/4 correct=%v\n%s",
				scraped.hits, scraped.misses, res.failed, res.attempted, res.correct, scraped.correct, strings.Join(res.details, "\n"))
		}
	}
}
