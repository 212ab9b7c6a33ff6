package exp

import (
	"fmt"

	"gossip/internal/core"
	"gossip/internal/sweep"
)

// Table1 reproduces Table 1: the tuned constants the simulations use, as
// formulas and evaluated at representative sizes. The formulas are the
// defaults of core.TunedFastGossipParams and core.TunedMemoryParams, so
// this table is generated from the very values every other experiment
// runs with.
func Table1(cfg Config) *Report {
	sizes := cfg.sizes([]int{1000, 10000, 100000, 1000000}, []int{1000, 100000})

	r := &Report{
		ID:    "table1",
		Title: "tuned constants used in the simulations (paper Table 1)",
		Table: sweep.Table{
			Columns: append([]string{"algorithm", "phase", "limit", "formula"},
				sizeCols(sizes)...),
		},
		Notes: []string{
			"log n is base 2 throughout (paper §1); long-steps of Algorithm 2 group 4 steps",
		},
	}

	row := func(algo, phase, limit, formula string, eval func(n int) any) {
		cells := []any{algo, phase, limit, formula}
		for _, n := range sizes {
			cells = append(cells, eval(n))
		}
		r.Table.AddRow(cells...)
	}
	fg, mm := core.TunedFastGossipParams, core.TunedMemoryParams
	row("Algorithm 1", "I", "number of steps", "⌈1.2·loglog n⌉",
		func(n int) any { return fg(n).DistributionSteps })
	row("Algorithm 1", "II", "number of rounds", "⌈log n / loglog n⌉",
		func(n int) any { return fg(n).Rounds })
	row("Algorithm 1", "II", "random walk probability", "1 / log n",
		func(n int) any { return fmt.Sprintf("%.4f", fg(n).WalkProb) })
	row("Algorithm 1", "II", "number of random walk steps", "⌈log n / loglog n + 2⌉",
		func(n int) any { return fg(n).WalkSteps })
	row("Algorithm 1", "II", "number of broadcast steps", "⌈0.5·loglog n⌉",
		func(n int) any { return fg(n).BroadcastSteps })
	row("Algorithm 2", "I", "first loop, number of steps", "2.0·log n (multiple of 4)",
		func(n int) any { return mm(n).PushSteps })
	row("Algorithm 2", "I", "second loop, number of steps", "⌊2.0·loglog n⌋",
		func(n int) any { return mm(n).PullSteps })
	row("Algorithm 2", "II", "number of steps", "corresponds to Phase I",
		func(n int) any { return mm(n).PushSteps + mm(n).PullSteps })
	row("Algorithm 2", "III", "number of push steps", "⌊log n⌋ (multiple of 4)",
		func(n int) any { return mm(n).Phase3PushSteps })
	return r
}

func sizeCols(sizes []int) []string {
	out := make([]string, len(sizes))
	for i, n := range sizes {
		out[i] = fmt.Sprintf("n=%d", n)
	}
	return out
}
