package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// declaration is BENCHMARK.json, the benchmark's contract with its
// driver; compare takes each end-to-end metric's bound from it.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readDeclaration() (declaration, error) {
	var d declaration
	b, err := os.ReadFile(filepath.Join(benchDir(), "..", "BENCHMARK.json"))
	if err != nil {
		return d, err
	}
	return d, json.Unmarshal(b, &d)
}

// side is one result file's untraced runs of one workload.
type side struct {
	values    map[string][]float64 // metric → one value per run
	attempted int64
	failed    int64
	hashes    map[uint64]string // seed → result_hash
}

func sides(f resultFile) map[string]*side {
	out := map[string]*side{}
	for _, r := range f.Runs {
		if r.Trace {
			continue
		}
		s := out[r.Workload]
		if s == nil {
			s = &side{values: map[string][]float64{}, hashes: map[uint64]string{}}
			out[r.Workload] = s
		}
		for name, m := range r.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
		s.attempted += r.Attempted
		s.failed += r.Failed
		if r.ResultHash != "" {
			s.hashes[r.Seed] = r.ResultHash
		}
	}
	return out
}

func (s *side) failedRatio() float64 {
	if s.attempted == 0 {
		return 1
	}
	return float64(s.failed) / float64(s.attempted)
}

// verdict judges b against a for one metric: regressed when b's median
// is worse than a's by more than the bound; unresolved when either
// side's run-to-run spread (inter-quartile distance over its median) is
// wider than the bound, unless every run of b beats every run of a.
func verdict(d declared, a, b []float64) (ratio float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	ratio = mb / ma
	worse := ratio - 1
	if d.Better == "higher" {
		worse = 1 - ratio
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		sa, sb := sorted(a), sorted(b)
		allBetter := sb[len(sb)-1] < sa[0]
		if d.Better == "higher" {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return ratio, "unresolved"
		}
	}
	if worse > d.Bound {
		return ratio, "regressed"
	}
	return ratio, "ok"
}

// compareMain implements `bench compare a.json b.json`: a is the base.
// It exits non-zero when a metric regressed or b fails more often.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare base.json new.json")
		return 2
	}
	decl, err := readDeclaration()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var files [2]resultFile
	for i, path := range args {
		if files[i], err = readResultFile(path); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "base %s: revision %s dirty=%v, dial_invert %.3g ns/node\n", args[0], files[0].Env.Revision, files[0].Env.Dirty, files[0].Env.Calibration)
	fmt.Fprintf(stdout, "new  %s: revision %s dirty=%v, dial_invert %.3g ns/node\n", args[1], files[1].Env.Revision, files[1].Env.Dirty, files[1].Env.Calibration)
	a, b := sides(files[0]), sides(files[1])
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\tnew median\tnew/base\tbound\tspread base\tspread new\tverdict")
	bad := false
	for _, w := range decl.Workloads {
		sa, sb := a[w.Name], b[w.Name]
		if sa == nil || sb == nil {
			fmt.Fprintf(tw, "%s\t(missing from a file)\t\t\t\t\t\t\tunresolved\n", w.Name)
			continue
		}
		for _, d := range decl.EndToEnd {
			va, vb := sa.values[d.Name], sb.values[d.Name]
			ratio, v := verdict(d, va, vb)
			if v == "regressed" {
				bad = true
			}
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.6g\t%.6g\t%.4f of %.6g\t%.2f\t%.4f\t%.4f\t%s\n", w.Name, d.Name, d.Unit,
				median(va), median(vb), ratio, median(va), d.Bound, spread(va), spread(vb), v)
		}
		v := "ok"
		if sb.failedRatio() > sa.failedRatio() {
			v, bad = "regressed", true
		}
		fmt.Fprintf(tw, "%s\tfailed_ratio\t%.6g\t%.6g\t\t\t\t\t%s\n", w.Name, sa.failedRatio(), sb.failedRatio(), v)
		common, changed := 0, 0
		for seed, h := range sa.hashes {
			if h2, ok := sb.hashes[seed]; ok {
				common++
				if h != h2 {
					changed++
				}
			}
		}
		if changed > 0 {
			fmt.Fprintf(tw, "%s\tresult_hash\t\t\t\t\t\t\tchanged on %d of %d common seeds (reported, not failed: the simulated statistics differ)\n", w.Name, changed, common)
		} else if common > 0 {
			fmt.Fprintf(tw, "%s\tresult_hash\t\t\t\t\t\t\tequal on %d common seeds\n", w.Name, common)
		}
	}
	tw.Flush()
	if bad {
		return 1
	}
	return 0
}
