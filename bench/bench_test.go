package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclarationMatchesHarness pins BENCHMARK.json to the metric and
// workload tables the harness emits from.
func TestDeclarationMatchesHarness(t *testing.T) {
	d, err := readDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []declared, want []decl) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) {
				t.Errorf("%s: bad metric name %q", kind, g.Name)
			}
		}
	}
	same("end_to_end", d.EndToEnd, endToEnd)
	same("per_layer", d.PerLayer, perLayer)
	hasSetup := false
	for _, m := range d.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness %q: %q", i, d.Workloads[i], w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.name)
		}
	}
}

// TestQuickRuns runs every workload, untraced and traced, at quick size:
// every check passes, the last line printed is the contract's object with
// exactly the declared metrics, and compare of the results with
// themselves is all ok.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads")
	}
	var file resultFile
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			res, err := runOne(config{workload: w.name, seed: 1, seconds: 1, trace: trace, quick: true}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d problems=%v", w.name, trace, res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Fatalf("%s trace=%v: last line is not the contract object (%v): %s", w.name, trace, err, lines[len(lines)-1])
			}
			want := res.decls()
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.name, trace, len(line.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := line.Metrics[d.name]
				if !ok || m.Value == nil || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or without value/unit %s", w.name, trace, d.name, d.unit)
				}
				if !trace && (m.Value == nil || *m.Value <= 0) {
					t.Errorf("%s: end-to-end metric %s is not positive", w.name, d.name)
				}
			}
			file.Runs = append(file.Runs, res)
		}
	}

	path := filepath.Join(t.TempDir(), "quick.json")
	if err := writeResultFile(path, file); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := compareMain([]string{path, path}, &out, &errOut); code != 0 {
		t.Errorf("compare of a result with itself exits %d: %s%s", code, out.String(), errOut.String())
	}
	if s := out.String(); strings.Contains(s, "regressed") || strings.Contains(s, "unresolved") || strings.Count(s, "ok") < len(workloads)*(len(endToEnd)+1) {
		t.Errorf("compare of a result with itself is not all ok:\n%s", s)
	}
}

// TestTracedRecordsEqualUntraced is the traced pass's licence: it
// simulates byte for byte what the default Execute does.
func TestTracedRecordsEqualUntraced(t *testing.T) {
	for _, w := range []sweep{gossipExact, broadcastLarge, densityModels} {
		cells, err := w.scenarios(true)
		if err != nil {
			t.Fatal(err)
		}
		plain := sweepOnce(cells, 7, nil, 0, false)
		traced := sweepOnce(cells, 7, newTracer(), 1, false)
		if !bytes.Equal(plain.records, traced.records) {
			t.Errorf("%v: traced records differ from untraced", w.grids[0].Algos)
		}
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope", "-quick"}, &out, &errOut); code == 0 {
		t.Error("unknown workload accepted")
	}
	if !strings.Contains(errOut.String(), `unknown workload "nope"`) || out.Len() != 0 {
		t.Errorf("stderr %q, stdout %q", errOut.String(), out.String())
	}
}

// TestQuartilesMatchPython: statistics.quantiles(range(1, 11), n=4) is
// [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := declared{Name: "x", Better: "lower", Bound: 0.1}
	higher := declared{Name: "x", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		d    declared
		a, b []float64
		want string
	}{
		{lower, []float64{10, 10, 10}, []float64{10.5, 10.5, 10.5}, "ok"},
		{lower, []float64{10, 10, 10}, []float64{11.5, 11.5, 11.5}, "regressed"},
		{higher, []float64{10, 10, 10}, []float64{8.5, 8.5, 8.5}, "regressed"},
		{higher, []float64{10, 10, 10}, []float64{12, 12, 12}, "ok"},
		{lower, []float64{8, 10, 12, 14}, []float64{9, 10, 11, 12}, "unresolved"},
		{lower, []float64{8, 10, 12, 14}, []float64{4, 5, 6, 7}, "ok"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.Better, c.a, c.b, got, c.want)
		}
	}
}
