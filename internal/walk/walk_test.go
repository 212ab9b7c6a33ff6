package walk

import (
	"testing"
)

func TestQueueFIFO(t *testing.T) {
	var q Queue
	if !q.Empty() || q.Len() != 0 {
		t.Error("zero Queue should be empty")
	}
	a := &Token{Moves: 1}
	b := &Token{Moves: 2}
	q.Add(a)
	q.Add(b)
	if q.Len() != 2 {
		t.Errorf("Len = %d", q.Len())
	}
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

func TestDrain(t *testing.T) {
	var q Queue
	for i := 0; i < 5; i++ {
		q.Add(&Token{Moves: int32(i)})
	}
	q.Pop()
	got := q.Drain()
	if len(got) != 4 {
		t.Fatalf("Drain len = %d", len(got))
	}
	for i, tok := range got {
		if tok.Moves != int32(i+1) {
			t.Errorf("Drain[%d].Moves = %d", i, tok.Moves)
		}
	}
	if !q.Empty() {
		t.Error("queue not empty after Drain")
	}
}

func TestPoolRecycles(t *testing.T) {
	p := NewPool(64)
	a := p.Get()
	if a.Payload.Len() != 64 {
		t.Fatalf("payload width = %d", a.Payload.Len())
	}
	a.Payload.Add(3)
	a.Moves = 9
	p.Put(a)
	b := p.Get()
	if b != a {
		t.Error("pool did not recycle")
	}
	if b.Moves != 0 || b.Payload.Len() != 64 {
		t.Error("recycled token: moves not reset or payload width changed")
	}
}

func TestPoolPutAllAndNil(t *testing.T) {
	p := NewPool(8)
	a, b := p.Get(), p.Get()
	p.PutAll([]*Token{a, nil, b})
	if len(p.free) != 2 {
		t.Errorf("pool holds %d tokens", len(p.free))
	}
}
