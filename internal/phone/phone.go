// Package phone implements the random phone call model substrate (Demers
// et al. PODC'87; Karp et al. FOCS'00; §2 of the reproduced paper).
//
// A simulation proceeds in synchronous steps. In each step every node may
// open a channel to one neighbor — uniformly random, or uniformly random
// avoiding a short list of remembered links (the §4 memory model). Every
// algorithm is a set of per-node protocol state machines (Machine)
// executed by a pluggable Transport — Sync, the canonical in-memory
// implementation whose delivery order defines the reference results; on
// a seeded schedule (NewSeeded) nodes and callers deliver in seeded
// orders, showing that protocol code does not depend on delivery order,
// with a failing order replayable from its seed. internal/gossipd, the
// one truly concurrent transport, drives the same machines over loopback
// TCP. A node fixes its answer to every caller in OnStep, so no transport
// calls into a callee to serve a channel. Sync draws DialUniform in two
// passes over a chunk of nodes, every draw and then every load; gossipd
// per node.
//
// What the machines and transports share lives here too: the per-node
// RNG streams, failure mask and open-avoid dial (Net), the bounded link
// memory behind it (LinkMemory), the per-step dial table with its
// inverted incoming-channel index (Round, which Sync steps on), and the
// transmission meter with its counting conventions (Meter).
//
// The algorithms themselves live in internal/core.
package phone

import (
	"gossip/internal/graph"
	"gossip/internal/xrand"
)

// NoDial marks a node that keeps its channel closed in a step.
const NoDial int32 = -1

// DialUniform, returned from OnStep, dials a uniformly random neighbour:
// right after OnStep the transport makes Graph.RandomNeighbor's draw on
// the node's stream in the Net its machines name (see Machine). On an
// isolated node it is NoDial, and the push returned with it is dropped.
const DialUniform int32 = -2

const noNet = "phone: a machine dialed DialUniform on a transport none of whose machines has a Net() *phone.Net"

// Round is the dial table of one synchronous step plus its inverted index.
// Out[v] is the callee of v (or NoDial). After BuildIncoming, Incoming(v)
// lists the callers that opened a channel to v this step. A Round is reused
// across steps to avoid per-step allocation.
type Round struct {
	Out    []int32
	inOff  []int32 // len n+1 after BuildIncoming
	inFlat []int32
	cursor []int32 // counting-sort scratch, reused across steps
	built  bool
}

// NewRound returns a Round for n nodes with all channels closed.
func NewRound(n int) *Round {
	r := &Round{
		Out:    make([]int32, n),
		inOff:  make([]int32, n+1),
		inFlat: make([]int32, n),
		cursor: make([]int32, n),
	}
	for i := range r.Out {
		r.Out[i] = NoDial
	}
	return r
}

// Reset closes all channels, preparing the Round for the next step.
func (r *Round) Reset() {
	for i := range r.Out {
		r.Out[i] = NoDial
	}
	r.built = false
}

// BuildIncoming constructs the caller index with a counting sort over the
// dial table. O(n), deterministic (callers of v are listed in increasing
// caller id).
func (r *Round) BuildIncoming() {
	n := len(r.Out)
	for i := range r.inOff {
		r.inOff[i] = 0
	}
	for _, u := range r.Out {
		if u >= 0 {
			r.inOff[u+1]++
		}
	}
	for i := 0; i < n; i++ {
		r.inOff[i+1] += r.inOff[i]
	}
	for i := range r.cursor {
		r.cursor[i] = 0
	}
	for v, u := range r.Out {
		if u >= 0 {
			r.inFlat[r.inOff[u]+r.cursor[u]] = int32(v)
			r.cursor[u]++
		}
	}
	r.built = true
}

// Incoming returns the callers of v this step. BuildIncoming must have run.
func (r *Round) Incoming(v int32) []int32 {
	if !r.built {
		panic("phone: Incoming before BuildIncoming")
	}
	return r.inFlat[r.inOff[v]:r.inOff[v+1]]
}

// Net bundles the graph with per-node RNG streams and the per-node link
// memory of the §4 memory model. Per-node streams make the parallel dial
// phase deterministic regardless of goroutine scheduling.
type Net struct {
	G      *graph.Graph
	rngs   []xrand.RNG
	Memory []LinkMemory // per-node remembered links (used by open-avoid)
	Failed []bool       // crash-failure mask; failed nodes never dial or send
}

// NewNet builds a Net over g. Each node's stream is derived from seed and
// the node id, so two Nets with equal seeds behave identically.
func NewNet(g *graph.Graph, seed uint64) *Net {
	n := g.N()
	nt := &Net{
		G:      g,
		rngs:   make([]xrand.RNG, n),
		Memory: make([]LinkMemory, n),
		Failed: make([]bool, n),
	}
	for v := 0; v < n; v++ {
		nt.rngs[v].Reseed(xrand.SeedFor(seed, uint64(v)))
	}
	return nt
}

// RNG returns node v's private stream.
func (nt *Net) RNG(v int32) *xrand.RNG { return &nt.rngs[v] }

// OpenAvoid draws the open-avoid dial for v — uniform over N(v) \ l_v,
// the §4 memory-model primitive — and records the chosen link in v's
// memory. It returns NoDial for failed nodes and when every neighbor is
// remembered (the RNG stream is still consumed in the latter case, as the
// draw happens before the verdict). This is the seam-level dial the
// memory-model and leader-election machines use from OnStep: each node
// only ever touches its own stream and its own memory, so the dial phase
// parallelizes without changing results.
func (nt *Net) OpenAvoid(v int32) int32 {
	if nt.Failed[v] {
		return NoDial
	}
	u := nt.G.RandomNeighborAvoid(v, &nt.rngs[v], nt.Memory[v].Links())
	if u >= 0 {
		nt.Memory[v].Remember(u)
	}
	return u
}

// Resolve returns dial, or v's uniform draw if dial is DialUniform; a nil
// nt panics then.
func (nt *Net) Resolve(v, dial int32) int32 {
	if dial == DialUniform {
		if nt == nil {
			panic(noNet)
		}
		return nt.G.RandomNeighbor(v, &nt.rngs[v])
	}
	return dial
}

// netOf returns the Net of the first machine with a Net() *Net method,
// or nil: the Net a transport resolves DialUniform on.
func netOf(ms []Machine) *Net {
	for _, m := range ms {
		if h, ok := m.(interface{ Net() *Net }); ok {
			return h.Net()
		}
	}
	return nil
}

// InitMemory resets every node's link memory to an empty memory of c
// slots. The §4 algorithms start each phase with fresh memories, so a
// machine set built over a shared Net calls this before its first step.
func (nt *Net) InitMemory(c int) {
	for i := range nt.Memory {
		nt.Memory[i] = NewLinkMemory(c)
	}
}

// FailCount returns the number of failed nodes.
func (nt *Net) FailCount() int {
	c := 0
	for _, f := range nt.Failed {
		if f {
			c++
		}
	}
	return c
}

// MemorySlots is the size of the per-node link list in the §4 memory model
// ("the nodes can store up to four different links they called on in the
// past").
const MemorySlots = 4

// LinkMemory is the bounded FIFO of remembered link addresses. The zero
// value is an empty memory.
type LinkMemory struct {
	slots [MemorySlots]int32
	size  int8
	head  int8
	cap8  int8 // 0 means MemorySlots (zero value stays useful)
}

// NewLinkMemory returns a memory restricted to c slots (0 < c <=
// MemorySlots); the ablation experiments vary c.
func NewLinkMemory(c int) LinkMemory {
	if c <= 0 || c > MemorySlots {
		panic("phone: link memory capacity out of range")
	}
	return LinkMemory{cap8: int8(c)}
}

func (lm *LinkMemory) capacity() int8 {
	if lm.cap8 == 0 {
		return MemorySlots
	}
	return lm.cap8
}

// Remember records u, evicting the oldest entry when full.
func (lm *LinkMemory) Remember(u int32) {
	c := lm.capacity()
	if lm.size < c {
		lm.slots[(lm.head+lm.size)%c] = u
		lm.size++
		return
	}
	lm.slots[lm.head] = u
	lm.head = (lm.head + 1) % c
}

// Links returns the remembered links in unspecified order (membership is
// all open-avoid needs). The slice aliases an internal buffer valid until
// the next Remember. The head index only moves once the memory is full, so
// slots[:size] always holds exactly the live entries.
func (lm *LinkMemory) Links() []int32 {
	if lm.size == 0 {
		return nil
	}
	return lm.slots[:lm.size]
}

// Meter counts the communication complexity of a run under the conventions
// of Berenbrink et al. [5], which the paper adopts:
//
//   - Transmissions: data-carrying channel uses. Sending one combined
//     packet through an open channel counts once no matter how many
//     original messages it contains; a push–pull exchange on one channel
//     counts once. This is the "messages sent per node" series of
//     Figures 1 and 4.
//   - Packets: per-direction packet count (an exchange counts two).
//   - Opened: channels opened (the model also charges openings).
type Meter struct {
	Opened        int64
	Transmissions int64
	Packets       int64
	Steps         int
}

// Open charges k channel openings.
func (m *Meter) Open(k int64) { m.Opened += k }

// Push charges a one-directional packet through a channel.
func (m *Meter) Push(k int64) {
	m.Transmissions += k
	m.Packets += k
}

// Exchange charges a bidirectional push–pull exchange on k channels:
// one transmission, two packets each.
func (m *Meter) Exchange(k int64) {
	m.Transmissions += k
	m.Packets += 2 * k
}

// Step records the completion of one synchronous step.
func (m *Meter) Step() { m.Steps++ }

// Add folds o into m (per-phase meters summed into a run meter).
func (m *Meter) Add(o Meter) {
	m.Opened += o.Opened
	m.Transmissions += o.Transmissions
	m.Packets += o.Packets
	m.Steps += o.Steps
}

// PerNode returns x/n as a float64.
func PerNode(x int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(x) / float64(n)
}
