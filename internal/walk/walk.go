// Package walk implements the random-walk machinery of Algorithm 1
// Phase II: message-carrying tokens with move counters, and per-node FIFO
// queues ("to ensure that no random walk is lost, each node collects all
// incoming messages … and stores them in a queue to send them out one by
// one"). Tokens are owned by the caller: internal/core draws them from
// one per-run slab, so a round reuses the tokens of the round before.
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
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.Reset()
	}
	return t
}

// Empty reports whether the queue holds no tokens.
func (q *Queue) Empty() bool { return q.head == len(q.items) }

// Reset discards every queued token, keeping the storage (end-of-round
// cleanup; the paper's rounds discard walks that are still queued after
// activating their hosts).
func (q *Queue) Reset() {
	clear(q.items[q.head:])
	q.items = q.items[:0]
	q.head = 0
}
