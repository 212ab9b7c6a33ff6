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
	if !q.Empty() {
		t.Fatalf("queue holds %d tokens after Reset", len(q.items)-q.head)
	}
	for i, tok := range q.items[:cap(q.items)] {
		if tok != nil {
			t.Errorf("Reset kept a reference to a token in slot %d", i)
		}
	}
	q.Add(&Token{Moves: 7})
	if q.Pop().Moves != 7 || !q.Empty() {
		t.Error("queue not reusable after Reset")
	}
}
