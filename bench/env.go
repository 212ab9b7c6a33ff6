package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// env is where and on what a result file was measured. Calibration is
// phone.dial_invert_ns_per_node on this machine, so that ns-based metrics
// of two files can be read as ratios to it.
type env struct {
	Revision    string  `json:"revision"`
	Dirty       bool    `json:"dirty"`
	Go          string  `json:"go"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Seed        uint64  `json:"seed"`
	Load1       float64 `json:"load1"`
	Calibration float64 `json:"dial_invert_ns_per_node"`
}

// resultFile is what -out writes and compare reads.
type resultFile struct {
	Env  env       `json:"env"`
	Runs []*result `json:"runs"`
}

func environment(seed uint64, stderr io.Writer) env {
	e := env{Revision: "unknown", Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: gomaxprocs, Seed: seed}
	// Outside a git checkout (the driver's) the revision stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Revision = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			e.Dirty = len(st) > 0
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	if e.Load1 > 0.5 {
		fmt.Fprintf(stderr, "bench: warning: 1-minute load average is %.2f (> 0.5); timings will be noisy\n", e.Load1)
	}
	return e
}

func writeResultFile(path string, f resultFile) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
