package gossipd

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
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

// stalledConn is a peer connection that never answers: its reads and
// writes block until the cluster stops, whatever the deadline says.
type stalledConn struct {
	net.Conn // nil: call uses only the methods below
	stop     <-chan struct{}
}

func (s stalledConn) Read([]byte) (int, error)    { <-s.stop; return 0, net.ErrClosed }
func (s stalledConn) Write([]byte) (int, error)   { <-s.stop; return 0, net.ErrClosed }
func (s stalledConn) SetDeadline(time.Time) error { return nil }
func (s stalledConn) Close() error                { return nil }

// TestStalledPeerDoesNotStallCluster: node 1's first call stalls for the
// rest of the run, so its step loop never gets past step 1. A node holds
// its mutex only around machine callbacks, never across the call, so
// node 1 still answers every incoming channel, learns the rumor from
// them, and the broadcast completes well inside the timeout guard. Held
// across the call, the mutex would lock node 1's handlers out for good.
func TestStalledPeerDoesNotStallCluster(t *testing.T) {
	cfg := Config{N: 8, Payload: []byte("rumor"), Seed: 7, MaxSteps: 64 * ceilLog2(8), StepDelay: 50 * time.Microsecond, Timeout: 10 * time.Second}
	nt := phone.NewNet(graph.Complete(cfg.N), cfg.Seed)
	set := core.NewBroadcastSet(nt, 0, core.PushAndPull, cfg.Payload)
	c, err := newCluster(cfg, nt, set)
	if err != nil {
		t.Fatal(err)
	}
	dial := c.dial
	c.dial = func(from int32, addr string) (net.Conn, error) {
		if from == 1 {
			return stalledConn{stop: c.stop}, nil
		}
		return dial(from, addr)
	}
	rep := &Report{Stats: c.run(), InformedAt: make([]int32, cfg.N)}
	for v := range rep.InformedAt {
		rep.InformedAt[v] = set.InformedAt(int32(v))
	}
	if !rep.Completed {
		t.Fatalf("one stalled connection kept the broadcast from completing: %s", rep.Summary())
	}
	if got := c.nodes[1].steps.Load(); got != 1 {
		t.Fatalf("node 1 ran %d steps, want 1 (its first call stalls)", got)
	}
}

// TestStalledCallerDoesNotLockNode: a caller that sends its request and
// then stops reading stalls only its own channel. handle releases the
// node's mutex before it writes the response; held across the write, the
// mutex would keep the node's step loop and every other incoming channel
// waiting on the stalled caller until the wire deadline.
func TestStalledCallerDoesNotLockNode(t *testing.T) {
	cfg := Config{N: 2, Payload: []byte("rumor"), Seed: 7}
	nt := phone.NewNet(graph.Complete(cfg.N), cfg.Seed)
	c, err := newCluster(cfg, nt, core.NewBroadcastSet(nt, 0, core.PushAndPull, cfg.Payload))
	if err != nil {
		t.Fatal(err)
	}
	defer c.shutdown()
	nd := c.nodes[0]
	_, _, nd.answer = nd.m.OnStep(1) // the source answers pulls from its first step on
	conn, caller := net.Pipe()       // unbuffered: a write waits for its reader
	handled := make(chan struct{})
	go func() { defer close(handled); c.handle(nd, conn) }()
	defer func() { caller.Close(); <-handled }()
	if err := writeRequest(caller, 1, nil); err != nil {
		t.Fatal(err)
	}
	var flag [1]byte
	if _, err := caller.Read(flag[:]); err != nil || flag[0] != 1 {
		t.Fatalf("response flag %d, %v; want the source's pull response", flag[0], err)
	}
	// handle is now stuck writing the rest of the response.
	for i := 0; !nd.mu.TryLock(); i++ {
		if i == 100 {
			t.Fatal("node 0's mutex stays held while its response write is stalled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	nd.mu.Unlock()
}

// TestStepDelayLeavesNodeUnlocked: a node sleeps out its StepDelay
// without its mutex, so it answers incoming channels during the delay,
// not after it.
func TestStepDelayLeavesNodeUnlocked(t *testing.T) {
	cfg := Config{N: 2, Payload: []byte("rumor"), Seed: 7, MaxSteps: 1, StepDelay: 500 * time.Millisecond}
	nt := phone.NewNet(graph.Complete(cfg.N), cfg.Seed)
	c, err := newCluster(cfg, nt, core.NewBroadcastSet(nt, 0, core.PushAndPull, cfg.Payload))
	if err != nil {
		t.Fatal(err)
	}
	defer c.shutdown()
	c.dial = func(int32, string) (net.Conn, error) { return nil, net.ErrClosed } // calls fail at once
	nd := c.nodes[0]
	c.wg.Add(1)
	go c.stepLoop(nd, func() {})
	defer c.wg.Wait()
	for nd.steps.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // step 1's callbacks are done: node 0 sleeps
	if !nd.mu.TryLock() {
		t.Fatal("node 0's mutex is held during its step delay")
	}
	nd.mu.Unlock()
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
// node 0 pushes an int to node 1, and both answer every call with one.
type foreignSet struct{}

type foreignMachine struct{ id int32 }

func (foreignSet) Machine(v int32) phone.Machine { return foreignMachine{id: v} }
func (foreignSet) Complete() bool                { return false }

func (m foreignMachine) OnStep(int32) (int32, any, any) {
	if m.id == 0 {
		return 1, 42, 42
	}
	return 0, nil, 42
}
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

// wireSeeds adds TestWireRoundTrip's frames, written by write, and
// TestWireRejectsOversized's header to f's corpus.
func wireSeeds(f *testing.F, write func(w *bytes.Buffer, payload []byte) error) {
	for _, p := range [][]byte{[]byte("push!"), []byte("resp"), nil, {}} {
		var buf bytes.Buffer
		if err := write(&buf, p); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	var sz [4]byte
	binary.BigEndian.PutUint32(sz[:], maxPayload+1)
	f.Add(append([]byte{1}, sz[:]...))
	f.Add(append([]byte{0, 0, 0, 7, 1}, sz[:]...))
}

// FuzzReadRequest: decoding any bytes never panics, and a request that
// decodes re-encodes through writeRequest to exactly the bytes it read.
func FuzzReadRequest(f *testing.F) {
	wireSeeds(f, func(w *bytes.Buffer, p []byte) error { return writeRequest(w, 42, p) })
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		from, push, err := readRequest(r)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeRequest(&buf, from, push); err != nil {
			t.Fatal(err)
		}
		if read := data[:len(data)-r.Len()]; !bytes.Equal(buf.Bytes(), read) {
			t.Fatalf("request %x decoded to (%d, %q), which encodes as %x", read, from, push, buf.Bytes())
		}
	})
}

// FuzzReadResponse: decoding any bytes never panics, and a response that
// decodes re-encodes through writeResponse to exactly the bytes it read.
func FuzzReadResponse(f *testing.F) {
	wireSeeds(f, func(w *bytes.Buffer, p []byte) error { return writeResponse(w, p) })
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		resp, err := readResponse(r)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeResponse(&buf, resp); err != nil {
			t.Fatal(err)
		}
		if read := data[:len(data)-r.Len()]; !bytes.Equal(buf.Bytes(), read) {
			t.Fatalf("response %x decoded to %q, which encodes as %x", read, resp, buf.Bytes())
		}
	})
}
