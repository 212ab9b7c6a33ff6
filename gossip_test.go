package gossip

import (
	"strings"
	"testing"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	n := 512
	g := NewPaperGraph(n, 1)
	if g.N() != n {
		t.Fatalf("N = %d", g.N())
	}
	if !IsConnected(g) {
		t.Fatal("paper graph disconnected")
	}

	pp := RunPushPull(g, 2, 0)
	fg := RunFastGossip(g, TunedFastGossipParams(n), 3)
	mm := RunMemoryGossip(g, TunedMemoryParams(n), 4, -1)
	for _, res := range []*Result{pp, fg, mm} {
		if !res.Completed {
			t.Errorf("%s did not complete", res.Algorithm)
		}
	}
	if !(mm.TransmissionsPerNode() < fg.TransmissionsPerNode() &&
		fg.TransmissionsPerNode() < pp.TransmissionsPerNode()) {
		t.Errorf("Figure 1 ordering violated: %v / %v / %v",
			mm.TransmissionsPerNode(), fg.TransmissionsPerNode(), pp.TransmissionsPerNode())
	}
}

func TestPublicGraphConstructors(t *testing.T) {
	if g := NewErdosRenyi(100, 0.2, 1); g.N() != 100 || g.M() == 0 {
		t.Error("NewErdosRenyi wrong")
	}
	if g := NewRandomRegular(100, 6, 2); g.Degree(0) != 6 {
		t.Error("NewRandomRegular wrong")
	}
	if g := NewConfigurationModel(100, 6, 3); g.N() != 100 {
		t.Error("NewConfigurationModel wrong")
	}
	g := NewPowerLaw(500, 2.5, 4, 4)
	if g.N() != 500 {
		t.Error("NewPowerLaw wrong")
	}
	d := Degrees(g)
	if d.Max <= d.Mean {
		t.Error("power-law graph should have heavy-tailed degrees")
	}
	p := PaperEdgeProbability(1024)
	if p <= 0 || p >= 1 {
		t.Errorf("PaperEdgeProbability = %v", p)
	}
}

func TestPublicBroadcastAndLeader(t *testing.T) {
	n := 512
	g := NewPaperGraph(n, 5)
	bc := RunBroadcast(g, 0, PushAndPull, 6, 0)
	if !bc.Completed {
		t.Error("broadcast did not complete")
	}
	le := RunElectLeader(g, DefaultLeaderParams(n), 7)
	if !le.Unique {
		t.Error("election not unique")
	}
	res, le2 := RunMemoryGossipWithElection(g, TunedMemoryParams(n), DefaultLeaderParams(n), 8)
	if !res.Completed || !le2.Unique {
		t.Error("memory+election pipeline failed")
	}
}

func TestPublicRobustness(t *testing.T) {
	n := 2000
	g := NewPaperGraph(n, 9)
	p := TunedMemoryParams(n)
	p.Trees = 3
	res := RunMemoryRobustness(g, p, 10, 100)
	if res.Failed != 100 || res.N != n {
		t.Errorf("metadata wrong: %+v", res)
	}
	if res.LostAdditional > n {
		t.Errorf("impossible loss count: %d", res.LostAdditional)
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 14 {
		t.Fatalf("want 14 experiments, got %d", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
		if _, err := Experiment(id, ExperimentConfig{Seed: 1, Quick: true, Reps: 1, Sizes: []int{256}, Failures: []int{8}}); err != nil {
			t.Errorf("experiment %s: %v", id, err)
		}
	}
	if _, err := Experiment("nope", ExperimentConfig{}); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestPublicBroadcastVariants(t *testing.T) {
	n := 1024
	g := NewPaperGraph(n, 21)
	mc := RunMedianCounterBroadcast(g, 0, DefaultMedianCounterParams(n), 22)
	if !mc.Completed || !mc.Quiesced {
		t.Errorf("median counter failed: %+v", mc)
	}
	mb := RunMemoryBroadcast(g, TunedMemoryParams(n), 0, 23)
	if !mb.Completed {
		t.Error("memory broadcast failed")
	}
	if mb.Transmissions >= mc.Transmissions {
		t.Errorf("memory broadcast (%d transmissions) should undercut median counter (%d)",
			mb.Transmissions, mc.Transmissions)
	}
}

func TestPublicSampledEstimator(t *testing.T) {
	n := 1024
	g := NewPaperGraph(n, 24)
	exact := RunPushPull(g, 25, 0)
	est := RunPushPullSampled(g, 25, 64, 0)
	if !est.Completed {
		t.Fatal("estimator incomplete")
	}
	if est.Steps > exact.Steps {
		t.Errorf("sampled completion %d later than exact %d", est.Steps, exact.Steps)
	}
}

func TestPublicExtraTopologies(t *testing.T) {
	if g := NewComplete(32); g.M() != 32*31/2 {
		t.Error("NewComplete wrong")
	}
	if g := NewHypercube(5); g.N() != 32 || g.Degree(0) != 5 {
		t.Error("NewHypercube wrong")
	}
	// Gossiping runs on all of them.
	for _, gr := range []*Graph{NewComplete(256), NewHypercube(8)} {
		if res := RunPushPull(gr, 28, 0); !res.Completed {
			t.Errorf("push-pull incomplete on %d-node topology", gr.N())
		}
	}
}

func TestExperimentSmoke(t *testing.T) {
	rep, err := Experiment("table1", ExperimentConfig{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	rep.Render(&b)
	if !strings.Contains(b.String(), "Algorithm 1") {
		t.Error("table1 content missing")
	}
	rep, err = Experiment("figure1", ExperimentConfig{Seed: 1, Quick: true, Reps: 1, Sizes: []int{512}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 1 {
		t.Error("figure1 table wrong")
	}
}

func TestSeedsReproduce(t *testing.T) {
	g := NewPaperGraph(256, 11)
	a := RunFastGossip(g, TunedFastGossipParams(256), 12)
	b := RunFastGossip(g, TunedFastGossipParams(256), 12)
	if a.Meter != b.Meter || a.Steps != b.Steps {
		t.Error("public API not reproducible per seed")
	}
}
