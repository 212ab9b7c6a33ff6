// Package gossipd boots a cluster of gossip nodes over a real network
// transport — the first networked step of the ROADMAP's "from simulator
// to gossipd" item. Every node is a phone.Machine (the same machines the
// simulator drives — the push–pull broadcast set, or Algorithm 3's
// leader-election set) behind its own loopback TCP listener; a static
// peer table maps node ids to addresses. Each node runs its own step
// loop: open a channel to a peer (one TCP request), push its payload
// through it, and pull the peer's response — the random phone call
// model's step, executed asynchronously per node with no global round
// barrier.
//
// The cluster is one process today (the peer table, completion detection,
// and the shared RNG substrate are in-memory), but the node loop and wire
// exchange only see the Machine interface, addresses, and bytes — the
// seam future multi-process work extends.
package gossipd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gossip/internal/core"
	"gossip/internal/graph"
	"gossip/internal/phone"
)

// Config configures a Serve or ServeElection run.
type Config struct {
	// N is the number of nodes (>= 2).
	N int
	// Payload is the rumor the source node (id 0) disseminates. Empty
	// defaults to "hello, gossip". ServeElection ignores it.
	Payload []byte
	// Seed drives the per-node peer-choice streams and, in an election,
	// the candidate coins.
	Seed uint64
	// MaxSteps caps each node's local step count. 0 = 64·log₂ n for Serve;
	// for ServeElection, the Algorithm 3 schedule plus 64·log₂ n extra
	// pull steps — past the scheduled pull stage the machines simply keep
	// pulling, which is exactly what an asynchronous cluster needs to
	// finish spreading the winner's ID.
	MaxSteps int
	// StepDelay is the pause between a node's steps (0 = 200µs — keeps
	// the loopback cluster from busy-spinning while staying far faster
	// than completion needs).
	StepDelay time.Duration
	// Timeout aborts a run that does not complete (0 = 30s).
	Timeout time.Duration
}

// ElectionConfig configures a ServeElection run.
type ElectionConfig = Config

// Stats is what every cluster run reports, whatever the protocol.
type Stats struct {
	N int
	// Completed reports that the protocol's completion predicate held when
	// the cluster stopped: every node informed, or every node's current
	// minimum the eventual winner's ID.
	Completed bool
	// LocalSteps[v] is how many steps node v executed.
	LocalSteps []int32
	// Dials counts TCP channel openings across the cluster; WireBytes
	// counts payload-carrying bytes moved through them; CallErrors counts
	// the openings that failed (dial, write or read) while the cluster
	// was running.
	Dials      int64
	WireBytes  int64
	CallErrors int64
	Elapsed    time.Duration
}

// summary renders the one line both reports print: the protocol and its
// status, the protocol's own outcome, then the traffic every run has.
func (s *Stats) summary(protocol, outcome string) string {
	status := "completed"
	if !s.Completed {
		status = "INCOMPLETE"
	}
	var maxStep int32
	for _, n := range s.LocalSteps {
		if n > maxStep {
			maxStep = n
		}
	}
	return fmt.Sprintf("%s %s: %s, max %d local steps, %d dials, %d call errors, %d wire bytes, %v",
		protocol, status, outcome, maxStep, s.Dials, s.CallErrors, s.WireBytes, s.Elapsed.Round(time.Millisecond))
}

// Report describes a finished Serve run.
type Report struct {
	Stats
	// InformedAt[v] is the local step at which node v first held the
	// rumor (0 for the source, -1 if never informed).
	InformedAt []int32
}

// Summary renders a one-line human summary.
func (r *Report) Summary() string {
	informed := 0
	for _, at := range r.InformedAt {
		if at >= 0 {
			informed++
		}
	}
	return r.summary("push-pull broadcast", fmt.Sprintf("%d/%d nodes informed", informed, r.N))
}

// ElectionReport describes a finished ServeElection run.
type ElectionReport struct {
	Stats
	// Leader, Candidates, Unique and AwareCount are Algorithm 3's outcome
	// as resolved from the machines' final state (Leader is -1 if the
	// election failed).
	Leader     int32
	Candidates int
	Unique     bool
	AwareCount int
}

// Summary renders a one-line human summary.
func (r *ElectionReport) Summary() string {
	return r.summary("leader election", fmt.Sprintf("leader=%d unique=%v %d/%d aware, %d candidates",
		r.Leader, r.Unique, r.AwareCount, r.N, r.Candidates))
}

// node is one cluster member: a machine behind a listener, stepped by its
// own loop. The mutex serializes machine callbacks between the step loop
// and the listener's request handlers, and guards answer: what the
// machine's latest OnStep answers every incoming channel with.
type node struct {
	id      int32
	m       phone.Machine
	mu      sync.Mutex
	answer  any
	ln      net.Listener
	steps   atomic.Int32
	stopped atomic.Bool
}

// machineSet is what the cluster needs from a protocol: per-node machines
// (whose payloads must be []byte to cross the wire: any other fails its
// call, a call error) and a completion
// predicate safe to poll from the monitor goroutine. core.BroadcastSet and
// core.LeaderSet both satisfy it.
type machineSet interface {
	Machine(v int32) phone.Machine
	Complete() bool
}

// cluster wires n nodes over loopback TCP with a static peer table.
type cluster struct {
	cfg   Config
	nt    *phone.Net // the substrate DialUniform draws on
	set   machineSet
	nodes []*node
	peers []string // the static peer table: node id → address
	stop  chan struct{}
	wg    sync.WaitGroup
	srvWg sync.WaitGroup
	// dial opens node from's channel to addr; a test swaps it to stall
	// one node's connections.
	dial func(from int32, addr string) (net.Conn, error)

	dials     atomic.Int64
	wireBytes atomic.Int64
	callErrs  atomic.Int64
}

// newCluster opens one loopback listener per node and fills the peer table.
func newCluster(cfg Config, nt *phone.Net, set machineSet) (*cluster, error) {
	c := &cluster{
		cfg:   cfg,
		nt:    nt,
		set:   set,
		nodes: make([]*node, cfg.N),
		peers: make([]string, cfg.N),
		stop:  make(chan struct{}),
		dial: func(_ int32, addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 2*time.Second)
		},
	}
	for v := 0; v < cfg.N; v++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.shutdown()
			return nil, fmt.Errorf("gossipd: node %d listen: %w", v, err)
		}
		c.nodes[v] = &node{id: int32(v), m: set.Machine(int32(v)), ln: ln}
		c.peers[v] = ln.Addr().String()
	}
	return c, nil
}

// run starts every node's listener and step loop, waits for completion
// (polled via the set), for every node to hit its step cap, or for the
// timeout guard, then shuts the cluster down and reports on it.
func (c *cluster) run() Stats {
	start := time.Now() //gossiplint:allow detlint Elapsed reports real network wall time; cluster results are asynchronous, not replayed
	// No node answers a call before every node has begun its step 1: a
	// machine stamps what it receives with its current step, and a push
	// that beat the receiver's first OnStep would inform it "at step 0",
	// the source's mark. Early callers wait in the listeners' backlogs.
	var stepping sync.WaitGroup
	stepping.Add(len(c.nodes))
	for _, nd := range c.nodes {
		c.wg.Add(1)
		go c.stepLoop(nd, sync.OnceFunc(stepping.Done))
	}
	stepping.Wait()
	for _, nd := range c.nodes {
		c.srvWg.Add(1)
		go c.serveNode(nd)
	}

	allExited := make(chan struct{})
	go func() { c.wg.Wait(); close(allExited) }()
	deadline := time.NewTimer(c.cfg.Timeout)
	defer deadline.Stop()
	poll := time.NewTicker(time.Millisecond)
	defer poll.Stop()
wait:
	for {
		select {
		case <-poll.C:
			if c.set.Complete() {
				break wait
			}
		case <-allExited:
			break wait
		case <-deadline.C:
			break wait
		}
	}
	c.shutdown()
	c.wg.Wait()
	c.srvWg.Wait()
	st := Stats{
		N:          c.cfg.N,
		Completed:  c.set.Complete(),
		LocalSteps: make([]int32, c.cfg.N),
		Dials:      c.dials.Load(),
		WireBytes:  c.wireBytes.Load(),
		CallErrors: c.callErrs.Load(),
		Elapsed:    time.Since(start), //gossiplint:allow detlint Elapsed reports real network wall time; cluster results are asynchronous, not replayed
	}
	for v, nd := range c.nodes {
		st.LocalSteps[v] = nd.steps.Load()
	}
	return st
}

// newNet checks the cluster size and returns the complete-graph substrate
// the machine sets draw their peer choices from.
func newNet(cfg Config) (*phone.Net, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("gossipd: need at least 2 nodes, got %d", cfg.N)
	}
	return phone.NewNet(graph.Complete(cfg.N), cfg.Seed), nil
}

// serve is the one path both protocols take: fill cfg's defaults, boot
// the cluster over set's machines, run it to completion (or the step cap
// or the timeout) and shut it down.
func serve(cfg Config, nt *phone.Net, defaultMaxSteps int, set machineSet) (Stats, error) {
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = defaultMaxSteps
	}
	if cfg.StepDelay <= 0 {
		cfg.StepDelay = 200 * time.Microsecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	c, err := newCluster(cfg, nt, set)
	if err != nil {
		return Stats{}, err
	}
	return c.run(), nil
}

// Serve boots the cluster, runs the push–pull broadcast of cfg.Payload
// from node 0 to completion (or cfg.MaxSteps / cfg.Timeout), shuts the
// nodes down, and reports per-node informed times.
func Serve(cfg Config) (*Report, error) {
	nt, err := newNet(cfg)
	if err != nil {
		return nil, err
	}
	if len(cfg.Payload) == 0 {
		cfg.Payload = []byte("hello, gossip")
	}
	set := core.NewBroadcastSet(nt, 0, core.PushAndPull, cfg.Payload)
	st, err := serve(cfg, nt, 64*ceilLog2(cfg.N), set)
	if err != nil {
		return nil, err
	}
	rep := &Report{Stats: st, InformedAt: make([]int32, cfg.N)}
	for v := range rep.InformedAt {
		rep.InformedAt[v] = set.InformedAt(int32(v))
	}
	return rep, nil
}

// ServeElection boots the cluster and runs Algorithm 3 — the same
// core.LeaderSet machines the simulator drives — over loopback TCP: each
// node pushes the smallest candidate ID it knows for the scheduled push
// stage of its own local clock, then keeps answering and opening pull
// channels until every node's minimum is the winner's ID. The run stops
// as soon as the cluster-wide completion predicate holds (or on the step
// cap / timeout), and the election is resolved from the machines' final
// state.
func ServeElection(cfg ElectionConfig) (*ElectionReport, error) {
	nt, err := newNet(cfg)
	if err != nil {
		return nil, err
	}
	p := core.DefaultLeaderParams(cfg.N)
	set := core.NewLeaderSet(nt, p)
	st, err := serve(cfg, nt, p.PushSteps+p.PullSteps+64*ceilLog2(cfg.N), set)
	if err != nil {
		return nil, err
	}
	res := set.Resolve()
	return &ElectionReport{
		Stats:      st,
		Leader:     res.Leader,
		Candidates: res.Candidates,
		Unique:     res.Unique,
		AwareCount: res.AwareCount,
	}, nil
}

func (c *cluster) shutdown() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	for _, nd := range c.nodes {
		if nd != nil && nd.ln != nil {
			nd.ln.Close()
		}
	}
}

// stepLoop is a node's life: one random phone call per local step. It
// calls stepping once, when its machine has begun step 1 (or never will).
func (c *cluster) stepLoop(nd *node, stepping func()) {
	defer c.wg.Done()
	defer nd.stopped.Store(true)
	defer stepping()
	for step := int32(1); int(step) <= c.cfg.MaxSteps; step++ {
		select {
		case <-c.stop:
			return
		default:
		}
		nd.steps.Store(step)
		nd.mu.Lock()
		dial, push, answer := nd.m.OnStep(step)
		dial = c.nt.Resolve(nd.id, dial)
		nd.answer = answer
		nd.mu.Unlock()
		stepping()
		if dial >= 0 {
			c.dials.Add(1)
			// The network I/O runs outside the machine lock, so this
			// node keeps answering incoming calls while it waits.
			resp, err := c.call(c.peers[dial], nd.id, push)
			if err != nil {
				// A failed call is a lost exchange, which gossip
				// tolerates; it is counted unless shutdown, which
				// closes the listeners under in-flight calls, began.
				select {
				case <-c.stop:
				default:
					c.callErrs.Add(1)
				}
			} else if resp != nil {
				nd.mu.Lock()
				nd.m.OnReceive(dial, resp)
				nd.mu.Unlock()
			}
		}
		nd.mu.Lock()
		nd.m.OnStepEnd(step)
		nd.mu.Unlock()
		time.Sleep(c.cfg.StepDelay)
	}
}

// serveNode accepts incoming channels on the node's listener.
func (c *cluster) serveNode(nd *node) {
	defer c.srvWg.Done()
	for {
		conn, err := nd.ln.Accept()
		if err != nil {
			return // listener closed: shutdown
		}
		// serveNode itself holds a srvWg count, so this Add cannot race
		// the Wait in run.
		c.srvWg.Add(1)
		go func() {
			defer c.srvWg.Done()
			c.handle(nd, conn)
		}()
	}
}

// handle serves one incoming channel: deliver the caller's push, then
// send the answer of the node's latest OnStep.
func (c *cluster) handle(nd *node, conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second)) //gossiplint:allow detlint wire deadline against stuck peers, not simulation state
	from, push, err := readRequest(conn)
	if err != nil || from < 0 || int(from) >= c.cfg.N {
		return
	}
	nd.mu.Lock()
	if push != nil {
		nd.m.OnReceive(from, push)
	}
	resp := nd.answer
	nd.mu.Unlock()
	respBytes, ok := resp.([]byte)
	if !ok && resp != nil {
		return // no wire form: the caller's read fails, a call error there
	}
	if err := writeResponse(conn, respBytes); err == nil {
		c.wireBytes.Add(int64(len(respBytes)))
	}
}

// call opens a channel to addr: send our push (if any), pull the response.
func (c *cluster) call(addr string, from int32, push any) ([]byte, error) {
	pushBytes, ok := push.([]byte)
	if !ok && push != nil {
		return nil, fmt.Errorf("gossipd: node %d pushes a %T, not []byte", from, push)
	}
	conn, err := c.dial(from, addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second)) //gossiplint:allow detlint wire deadline against stuck peers, not simulation state
	if err := writeRequest(conn, from, pushBytes); err != nil {
		return nil, err
	}
	c.wireBytes.Add(int64(len(pushBytes)))
	return readResponse(conn)
}

// Wire format. Request: u32 caller id, u8 has-push, [u32 len, bytes].
// Response: u8 has-resp, [u32 len, bytes]. All big-endian; a flag is 0
// or 1, so every frame that decodes has one encoding; payloads are
// capped defensively (the rumor is application data, not a stream).
const maxPayload = 1 << 20

var errFlag = errors.New("gossipd: payload flag not 0 or 1")

func writeRequest(w io.Writer, from int32, push []byte) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(from))
	if push != nil {
		hdr[4] = 1
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if push == nil {
		return nil
	}
	return writeChunk(w, push)
}

func readRequest(r io.Reader) (from int32, push []byte, err error) {
	var hdr [5]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	from = int32(binary.BigEndian.Uint32(hdr[:4]))
	switch hdr[4] {
	case 0:
		return from, nil, nil
	case 1:
	default:
		return 0, nil, errFlag
	}
	push, err = readChunk(r)
	return from, push, err
}

func writeResponse(w io.Writer, resp []byte) error {
	var flag [1]byte
	if resp != nil {
		flag[0] = 1
	}
	if _, err := w.Write(flag[:]); err != nil {
		return err
	}
	if resp == nil {
		return nil
	}
	return writeChunk(w, resp)
}

func readResponse(r io.Reader) ([]byte, error) {
	var flag [1]byte
	if _, err := io.ReadFull(r, flag[:]); err != nil {
		return nil, err
	}
	switch flag[0] {
	case 0:
		return nil, nil
	case 1:
		return readChunk(r)
	}
	return nil, errFlag
}

func writeChunk(w io.Writer, b []byte) error {
	var sz [4]byte
	binary.BigEndian.PutUint32(sz[:], uint32(len(b)))
	if _, err := w.Write(sz[:]); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

func readChunk(r io.Reader) ([]byte, error) {
	var sz [4]byte
	if _, err := io.ReadFull(r, sz[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(sz[:])
	if n > maxPayload {
		return nil, errors.New("gossipd: oversized payload")
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

func ceilLog2(n int) int {
	l := 0
	for p := 1; p < n; p *= 2 {
		l++
	}
	if l < 1 {
		l = 1
	}
	return l
}
