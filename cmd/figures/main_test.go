package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"gossip"
)

// reexecEnv diverts a re-execed test binary into main(), so tests can
// drive the real command line.
const reexecEnv = "FIGURES_TEST_REEXEC"

func TestMain(m *testing.M) {
	if os.Getenv(reexecEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStrayOperandIsUsageError: flag parsing stops at the first operand,
// so `figures -quick 7 -exp figure1` would drop -exp and render every
// experiment. It is a usage error that renders nothing.
func TestStrayOperandIsUsageError(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-quick", "7", "-exp", "figure1")
	cmd.Env = append(os.Environ(), reexecEnv+"=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("figures with a stray operand: %v, want exit 2", err)
	}
	if stdout.Len() != 0 || strings.Contains(stderr.String(), "panic:") {
		t.Errorf("stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts(" 1, 2,3 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("parseInts = %v", got)
	}
	if got, err := parseInts(""); err != nil || got != nil {
		t.Errorf("empty list: %v, %v", got, err)
	}
	for _, bad := range []string{"x", "1,,2", "1;2"} {
		if _, err := parseInts(bad); err == nil {
			t.Errorf("parseInts(%q) accepted", bad)
		}
	}
}

func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig(7, 2, true, 3, "512,1024", "10,20")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Reps != 2 || !cfg.Quick || cfg.Workers != 3 {
		t.Errorf("scalar fields wrong: %+v", cfg)
	}
	if len(cfg.Sizes) != 2 || len(cfg.Failures) != 2 {
		t.Errorf("list fields wrong: %+v", cfg)
	}
	if _, err := buildConfig(1, 0, false, 0, "bad", ""); err == nil {
		t.Error("bad sizes accepted")
	}
	if _, err := buildConfig(1, 0, false, 0, "", "bad"); err == nil {
		t.Error("bad failures accepted")
	}
	// Sizes and failure counts the simulators would panic on.
	for _, sizes := range []string{"0", "512,1", "-4"} {
		if _, err := buildConfig(1, 0, false, 0, sizes, ""); err == nil {
			t.Errorf("sizes %q accepted", sizes)
		}
	}
	if _, err := buildConfig(1, 0, false, 0, "", "10,-3"); err == nil {
		t.Error("negative failure count accepted")
	}
}

// TestExperimentWorkerIndependence pins the engine guarantee the command
// relies on: -workers changes wall-clock, never output.
func TestExperimentWorkerIndependence(t *testing.T) {
	render := func(workers int) string {
		cfg, err := buildConfig(5, 1, true, workers, "512,1024", "")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := gossip.Experiment("figure1", cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		rep.Render(&b)
		return b.String()
	}
	if serial, parallel := render(1), render(8); serial != parallel {
		t.Fatalf("figure1 output depends on workers:\n-- 1 --\n%s\n-- 8 --\n%s", serial, parallel)
	}
}
