package gossip

import (
	"testing"

	"gossip/internal/exp"
)

// BenchmarkExperiments times every entry of exp.Experiments at Quick
// scale, for measuring while working on one (`go test -run '^$' -bench
// Experiments/figure1`). The seed is fixed so ns/op is comparable between
// commits; performance claims come from bench/, not from here.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range exp.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Run(exp.Config{Seed: 2015, Quick: true}) // IPDPS'15
			}
		})
	}
}
