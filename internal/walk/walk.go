// Package walk implements the random-walk machinery of Algorithm 1
// Phase II: message-carrying tokens with move counters, and per-node FIFO
// queues ("to ensure that no random walk is lost, each node collects all
// incoming messages … and stores them in a queue to send them out one by
// one"). Tokens are owned by the caller: internal/core draws them from
// one per-run slab, so a round reuses the tokens of the round before. A
// queue is linked through its tokens, so it allocates nothing.
package walk

import "gossip/internal/bitset"

// Token is one random walk: the combined message payload it carries and
// the number of real moves it has made (the moves(m) counter of the
// paper, used to stop walks after c_moves·log n moves so they stay mixed).
type Token struct {
	Payload *bitset.Set
	Moves   int32
	next    *Token // the token behind it in its queue
}

// Queue is a FIFO of tokens. The zero value is an empty queue. Pop
// returns tokens in arrival order; arrival order is made deterministic by
// the caller (deliveries are processed in increasing sender id). A token
// is in at most one queue at a time: a walk is at one node.
type Queue struct{ head, tail *Token }

// Add enqueues t.
func (q *Queue) Add(t *Token) {
	t.next = nil
	if q.tail == nil {
		q.head = t
	} else {
		q.tail.next = t
	}
	q.tail = t
}

// Pop dequeues the oldest token; it panics on an empty queue.
func (q *Queue) Pop() *Token {
	if q.Empty() {
		panic("walk: Pop from empty queue")
	}
	t := q.head
	if q.head = t.next; q.head == nil {
		q.tail = nil
	}
	return t
}

// Empty reports whether the queue holds no tokens.
func (q *Queue) Empty() bool { return q.head == nil }

// Reset discards every queued token: a round ends by discarding the
// walks still queued once they have activated their hosts.
func (q *Queue) Reset() { *q = Queue{} }
