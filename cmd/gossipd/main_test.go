package main

import "testing"

func TestRunServe(t *testing.T) {
	if code := run([]string{"serve", "-n", "6", "-payload", "t", "-delay", "50us"}); code != 0 {
		t.Fatalf("serve exited %d", code)
	}
}

func TestRunElect(t *testing.T) {
	if code := run([]string{"elect", "-n", "8", "-delay", "50us"}); code != 0 {
		t.Fatalf("elect exited %d", code)
	}
}

func TestRunUsage(t *testing.T) {
	if code := run(nil); code != 2 {
		t.Fatalf("bare invocation exited %d, want 2", code)
	}
	if code := run([]string{"bogus"}); code != 2 {
		t.Fatalf("unknown subcommand exited %d, want 2", code)
	}
	// A stray operand would otherwise end flag parsing and drop the
	// flags after it; it is a usage error before any node boots.
	for _, cmd := range []string{"serve", "elect"} {
		if code := run([]string{cmd, "-n", "6", "stray", "-seed", "2"}); code != 2 {
			t.Errorf("%s with a stray operand exited %d, want 2", cmd, code)
		}
	}
}
