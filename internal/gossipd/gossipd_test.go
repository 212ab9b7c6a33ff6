package gossipd

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"gossip/internal/core"
	"gossip/internal/graph"
	"gossip/internal/phone"
)

// TestServeBroadcastCompletes boots a small loopback cluster and checks
// the rumor reaches every node byte-for-byte.
func TestServeBroadcastCompletes(t *testing.T) {
	payload := []byte("the rumor, end to end")
	rep, err := Serve(Config{
		N:         8,
		Payload:   payload,
		Seed:      7,
		StepDelay: 50 * time.Microsecond,
		Timeout:   20 * time.Second,
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if !rep.Completed {
		t.Fatalf("broadcast did not complete: %s", rep.Summary())
	}
	if rep.InformedAt[0] != 0 {
		t.Fatalf("source informed at %d, want 0", rep.InformedAt[0])
	}
	for v := 1; v < rep.N; v++ {
		if rep.InformedAt[v] <= 0 {
			t.Fatalf("node %d informed at %d, want > 0", v, rep.InformedAt[v])
		}
	}
	if rep.Dials == 0 || rep.WireBytes < int64(len(payload)) {
		t.Fatalf("implausible traffic: %s", rep.Summary())
	}
	if s := rep.Summary(); !strings.Contains(s, "completed") {
		t.Fatalf("summary = %q", s)
	}
}

// runDeaf runs an 8-node broadcast cluster whose node 3 closed its
// listener before the run, so every call to it is refused.
func runDeaf(t *testing.T) (Config, *Report) {
	t.Helper()
	cfg := Config{N: 8, Payload: []byte("rumor"), Seed: 7, MaxSteps: 64 * ceilLog2(8), StepDelay: 50 * time.Microsecond, Timeout: 20 * time.Second}
	nt := phone.NewNet(graph.Complete(cfg.N), cfg.Seed)
	set := core.NewBroadcastSet(nt, 0, core.PushAndPull, cfg.Payload)
	c, err := newCluster(cfg, nt, set)
	if err != nil {
		t.Fatal(err)
	}
	c.nodes[3].ln.Close()
	return cfg, &Report{Stats: c.run()}
}

// TestCallErrorsCounted: the deaf node's refused calls must be counted,
// and the run must still end cleanly. The deaf node keeps dialing out,
// so it can still pull the rumor and the broadcast may well complete.
func TestCallErrorsCounted(t *testing.T) {
	cfg, rep := runDeaf(t)
	if rep.CallErrors == 0 || rep.CallErrors > rep.Dials {
		t.Fatalf("CallErrors = %d of %d dials with node 3 deaf: %s", rep.CallErrors, rep.Dials, rep.Summary())
	}
	if want := fmt.Sprintf("%d call errors", rep.CallErrors); !strings.Contains(rep.Summary(), want) {
		t.Fatalf("summary %q lacks %q", rep.Summary(), want)
	}
	if !rep.Completed && rep.Elapsed >= cfg.Timeout {
		t.Fatalf("run ended on the timeout guard, not on completion or the step cap: %s", rep.Summary())
	}
}

// TestNoGoroutineLeak runs every cluster shape — a broadcast, an
// election, and the deaf-node cluster whose calls fail — and requires
// the goroutine count back at its baseline once they have returned: a
// run leaves nothing behind, whatever its goroutines wait on.
func TestNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := Config{N: 12, Seed: 7, StepDelay: 50 * time.Microsecond, Timeout: 20 * time.Second}
	if _, err := Serve(cfg); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if _, err := ServeElection(cfg); err != nil {
		t.Fatalf("ServeElection: %v", err)
	}
	runDeaf(t)
	waitGoroutines(t, base)
}

// waitGoroutines polls for at most a second until no more than base
// goroutines run, and otherwise fails with every goroutine's stack.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines still running, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// foreignSet is a two-node cluster whose payloads have no wire form:
// node 0 pushes an int to node 1, and answers node 1's calls with one.
type foreignSet struct{}

type foreignMachine struct{ id int32 }

func (foreignSet) Machine(v int32) phone.Machine { return foreignMachine{id: v} }
func (foreignSet) Complete() bool                { return false }

func (m foreignMachine) OnStep(int32) (int32, any) {
	if m.id == 0 {
		return 1, 42
	}
	return 0, nil
}
func (m foreignMachine) OnOpen(int32) any   { return 42 }
func (foreignMachine) OnReceive(int32, any) {}
func (foreignMachine) OnStepEnd(int32)      {}

// TestForeignPayloadIsCallError: a push or an answer that is not []byte
// fails its call, which is counted, and never panics a node.
func TestForeignPayloadIsCallError(t *testing.T) {
	cfg := Config{N: 2, MaxSteps: 4, StepDelay: 50 * time.Microsecond, Timeout: 5 * time.Second}
	c, err := newCluster(cfg, nil, foreignSet{})
	if err != nil {
		t.Fatal(err)
	}
	st := c.run()
	if st.Dials != 8 || st.CallErrors != 8 {
		t.Fatalf("%d call errors of %d dials, want every one of the 8 to fail", st.CallErrors, st.Dials)
	}
}

func TestServeRejectsTinyCluster(t *testing.T) {
	if _, err := Serve(Config{N: 1}); err == nil {
		t.Fatal("Serve accepted a 1-node cluster")
	}
	if _, err := ServeElection(ElectionConfig{N: 1}); err == nil {
		t.Fatal("ServeElection accepted a 1-node cluster")
	}
}

// TestServeElectionCompletes runs Algorithm 3 over loopback TCP and checks
// the cluster agrees on a unique leader every node knows about.
func TestServeElectionCompletes(t *testing.T) {
	rep, err := ServeElection(ElectionConfig{
		N:         12,
		Seed:      7,
		StepDelay: 50 * time.Microsecond,
		Timeout:   20 * time.Second,
	})
	if err != nil {
		t.Fatalf("ServeElection: %v", err)
	}
	if !rep.Completed || !rep.Unique {
		t.Fatalf("election did not converge: %s", rep.Summary())
	}
	if rep.Leader < 0 || int(rep.Leader) >= rep.N {
		t.Fatalf("leader %d out of range", rep.Leader)
	}
	if rep.AwareCount != rep.N {
		t.Fatalf("aware %d/%d", rep.AwareCount, rep.N)
	}
	if rep.Candidates < 1 {
		t.Fatalf("no candidates: %s", rep.Summary())
	}
	if rep.Dials == 0 || rep.WireBytes == 0 {
		t.Fatalf("implausible traffic: %s", rep.Summary())
	}
	if s := rep.Summary(); !strings.Contains(s, "completed") {
		t.Fatalf("summary = %q", s)
	}
}

// TestWireRoundTrip pins the frame format both directions, including
// nil-vs-present payload flags.
func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeRequest(&buf, 42, []byte("push!")); err != nil {
		t.Fatal(err)
	}
	from, push, err := readRequest(&buf)
	if err != nil || from != 42 || string(push) != "push!" {
		t.Fatalf("request round trip: from=%d push=%q err=%v", from, push, err)
	}

	buf.Reset()
	if err := writeRequest(&buf, 7, nil); err != nil {
		t.Fatal(err)
	}
	from, push, err = readRequest(&buf)
	if err != nil || from != 7 || push != nil {
		t.Fatalf("nil-push round trip: from=%d push=%v err=%v", from, push, err)
	}

	buf.Reset()
	if err := writeResponse(&buf, []byte("resp")); err != nil {
		t.Fatal(err)
	}
	resp, err := readResponse(&buf)
	if err != nil || string(resp) != "resp" {
		t.Fatalf("response round trip: %q err=%v", resp, err)
	}

	buf.Reset()
	if err := writeResponse(&buf, nil); err != nil {
		t.Fatal(err)
	}
	resp, err = readResponse(&buf)
	if err != nil || resp != nil {
		t.Fatalf("nil-response round trip: %v err=%v", resp, err)
	}
}

// TestWireRejectsOversized checks the defensive payload cap.
func TestWireRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte(1)
	var sz [4]byte
	binary.BigEndian.PutUint32(sz[:], maxPayload+1)
	buf.Write(sz[:])
	if _, err := readResponse(&buf); err == nil {
		t.Fatal("oversized payload accepted")
	}
}
