package walk

import (
	"testing"
)

func TestQueueFIFO(t *testing.T) {
	var q Queue
	if !q.Empty() {
		t.Error("zero Queue should be empty")
	}
	a := &Token{Moves: 1}
	b := &Token{Moves: 2}
	q.Add(a)
	q.Add(b)
	if got := q.Pop(); got != a {
		t.Error("Pop order wrong")
	}
	if got := q.Pop(); got != b {
		t.Error("Pop order wrong")
	}
	if !q.Empty() {
		t.Error("queue should be empty")
	}
}

func TestQueuePopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop on empty queue should panic")
		}
	}()
	var q Queue
	q.Pop()
}

func TestQueueReuseAfterDrainToEmpty(t *testing.T) {
	var q Queue
	for i := 0; i < 3; i++ {
		q.Add(&Token{Moves: int32(i)})
	}
	for i := 0; i < 3; i++ {
		if q.Pop().Moves != int32(i) {
			t.Fatal("order wrong")
		}
	}
	// Internal storage reset; interleave adds and pops.
	q.Add(&Token{Moves: 10})
	q.Add(&Token{Moves: 11})
	if q.Pop().Moves != 10 {
		t.Error("reuse order wrong")
	}
	q.Add(&Token{Moves: 12})
	if q.Pop().Moves != 11 || q.Pop().Moves != 12 {
		t.Error("interleaved order wrong")
	}
}

func TestReset(t *testing.T) {
	var q Queue
	for i := 0; i < 5; i++ {
		q.Add(&Token{Moves: int32(i)})
	}
	q.Pop()
	q.Reset()
	if !q.Empty() || q.tail != nil {
		t.Fatal("the queue still holds a token after Reset")
	}
	q.Add(&Token{Moves: 7})
	if q.Pop().Moves != 7 || !q.Empty() {
		t.Error("queue not reusable after Reset")
	}
}

// TestTokenMovesBetweenQueues: a queue is linked through its tokens, so a
// token popped from one queue and added to another must leave both in
// order, also when it was not the last in the queue it left.
func TestTokenMovesBetweenQueues(t *testing.T) {
	var p, q Queue
	a, b, c := &Token{Moves: 1}, &Token{Moves: 2}, &Token{Moves: 3}
	p.Add(a)
	p.Add(b)
	q.Add(c)
	q.Add(p.Pop())
	if got := p.Pop(); got != b || !p.Empty() {
		t.Fatal("the queue a token left lost its order")
	}
	if q.Pop() != c || q.Pop() != a || !q.Empty() {
		t.Fatal("the queue a token joined lost its order")
	}
}
