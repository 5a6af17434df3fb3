package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestBasicPutGet(t *testing.T) {
	c := New[int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a = %d, %v", v, ok)
	}
	// Replacement keeps size.
	c.Put("a", 10)
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("replaced a = %d", v)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestEvictionOrder(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")    // a is now most recent
	c.Put("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted out of order")
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d", c.Evictions())
	}
}

func TestRemove(t *testing.T) {
	c := New[string](4)
	c.Put("x", "1")
	c.Remove("x")
	c.Remove("missing") // no-op
	if _, ok := c.Get("x"); ok {
		t.Fatal("removed key hit")
	}
	if c.Len() != 0 {
		t.Fatalf("len after remove = %d", c.Len())
	}
	if c.Evictions() != 0 {
		t.Fatal("remove counted as eviction")
	}
}

func TestZeroCapacityNew(t *testing.T) {
	c := New[int](0)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("zero-capacity cache stored an entry")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%32)
				c.Put(k, i)
				c.Get(k)
				if i%50 == 0 {
					c.Remove(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("len %d exceeds capacity", c.Len())
	}
}
