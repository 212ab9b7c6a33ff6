// Package walk implements the random-walk machinery of Algorithm 1
// Phase II: message-carrying tokens with move counters, per-node FIFO
// queues ("to ensure that no random walk is lost, each node collects all
// incoming messages … and stores them in a queue to send them out one by
// one"), and a payload pool so a simulation round allocates no bitsets in
// steady state.
package walk

import "gossip/internal/bitset"

// Token is one random walk: the combined message payload it carries and
// the number of real moves it has made (the moves(m) counter of the
// paper, used to stop walks after c_moves·log n moves so they stay mixed).
type Token struct {
	Payload *bitset.Set
	Moves   int32
}

// Queue is a FIFO of tokens. The zero value is an empty queue. Pop
// returns tokens in arrival order; arrival order is made deterministic by
// the caller (deliveries are processed in increasing sender id).
type Queue struct {
	items []*Token
	head  int
}

// Add enqueues t.
func (q *Queue) Add(t *Token) { q.items = append(q.items, t) }

// Pop dequeues the oldest token; it panics on an empty queue.
func (q *Queue) Pop() *Token {
	if q.Empty() {
		panic("walk: Pop from empty queue")
	}
	t := q.items[q.head]
	q.items[q.head] = nil // release for GC / pool hygiene
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return t
}

// Empty reports whether the queue holds no tokens.
func (q *Queue) Empty() bool { return q.head == len(q.items) }

// Len returns the number of queued tokens.
func (q *Queue) Len() int { return len(q.items) - q.head }

// Drain removes and returns all queued tokens (end-of-round cleanup; the
// paper's rounds discard walks that are still queued after activating
// their hosts).
func (q *Queue) Drain() []*Token {
	out := make([]*Token, 0, q.Len())
	for !q.Empty() {
		out = append(out, q.Pop())
	}
	return out
}

// Pool recycles token payloads of a fixed width.
type Pool struct {
	width int
	free  []*Token
}

// NewPool returns a pool of tokens with width-bit payloads.
func NewPool(width int) *Pool { return &Pool{width: width} }

// Get returns a token with zero move count. A recycled token still carries
// its last payload: the contents are unspecified until the caller writes
// every word (Payload.CopyFrom).
func (p *Pool) Get() *Token {
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free = p.free[:n-1]
		t.Moves = 0
		return t
	}
	return &Token{Payload: bitset.New(p.width)}
}

// Put returns a token to the pool. The caller must not use it afterwards.
func (p *Pool) Put(t *Token) {
	if t == nil {
		return
	}
	p.free = append(p.free, t)
}

// PutAll returns a batch of tokens to the pool.
func (p *Pool) PutAll(ts []*Token) {
	for _, t := range ts {
		p.Put(t)
	}
}
