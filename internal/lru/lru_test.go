package lru

import "testing"

func TestEvictionOrder(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // a becomes MRU, b is now LRU
		t.Fatal("a missing")
	}
	if n := c.Put("c", 3); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU b not evicted")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatal("recently used a evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

func TestPutRefreshesInPlace(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if n := c.Put("a", 10); n != 0 {
		t.Fatalf("refresh evicted %d entries", n)
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("refresh lost the new value: %d", v)
	}
	// The refresh made a MRU; inserting evicts b.
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been the LRU")
	}
}

func TestCapacityOnePanicOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 accepted")
		}
	}()
	New[int, int](0)
}
