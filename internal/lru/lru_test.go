package lru

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

func resident(c *Cache[int]) []string {
	var keys []string
	c.Range(func(k string, _ int) { keys = append(keys, k) })
	return keys
}

// Capacity+1 puts leave exactly capacity entries, and the one evicted is
// the least recently *used*: a Get refreshes its entry.
func TestEvictsLeastRecentlyUsed(t *testing.T) {
	const capacity = 4
	c := New[int](capacity)
	for i := 0; i < capacity; i++ {
		c.Put(fmt.Sprint("k", i), i)
	}
	if v, ok := c.Get("k0"); !ok || v != 0 {
		t.Fatalf("Get(k0) = %d, %v", v, ok)
	}
	c.Put("k4", 4)
	if c.Len() != capacity {
		t.Fatalf("Len = %d after capacity+1 puts, want %d", c.Len(), capacity)
	}
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 was the least recently used entry and is still resident")
	}
	for _, k := range []string{"k0", "k2", "k3", "k4"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s was evicted", k)
		}
	}
	// Overwriting a resident key neither grows the cache nor evicts.
	c.Put("k2", 22)
	if v, _ := c.Get("k2"); v != 22 || c.Len() != capacity {
		t.Fatalf("overwrite: k2 = %d, Len = %d", v, c.Len())
	}
	// The evicted slot is reused, so the order stays a consistent list.
	for i := 5; i < 5+3*capacity; i++ {
		c.Put(fmt.Sprint("k", i), i)
	}
	if got, want := resident(c), []string{"k16", "k15", "k14", "k13"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("resident after churn = %v, want %v", got, want)
	}
}

// GetBytes finds what Get finds, refreshes its entry as Get does, and
// makes no string of the key.
func TestGetBytes(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.GetBytes([]byte("a")); !ok || v != 1 {
		t.Fatalf("GetBytes(a) = %d, %v", v, ok)
	}
	if _, ok := c.GetBytes([]byte("z")); ok {
		t.Fatal("GetBytes found a key never put")
	}
	c.Put("c", 3) // evicts b: the GetBytes made a the most recently used
	if got := fmt.Sprint(resident(c)); got != "[c a]" {
		t.Fatalf("resident after GetBytes and a put = %s, want [c a]", got)
	}
	key := []byte("a")
	if n := testing.AllocsPerRun(100, func() { c.GetBytes(key) }); n != 0 {
		t.Errorf("GetBytes allocates %.0f times", n)
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	c := New[int](0)
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprint(i), i)
	}
	if c.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", c.Len())
	}
}

// Roll empties the cache and a value computed under the previous
// generation is dropped, not stored.
func TestRollDropsSupersededPuts(t *testing.T) {
	c := New[int](8)
	gen := c.Gen()
	c.PutAt(gen, "a", 1)
	c.Put("b", 2)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if next := c.Roll(); next != gen+1 || c.Gen() != gen+1 {
		t.Fatalf("Roll = %d, Gen = %d, want %d", next, c.Gen(), gen+1)
	}
	if c.Len() != 0 || len(resident(c)) != 0 {
		t.Fatal("Roll left entries behind")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived the roll")
	}
	c.PutAt(gen, "stale", 3)
	if _, ok := c.Get("stale"); ok || c.Len() != 0 {
		t.Fatal("a put from the superseded generation was stored")
	}
	c.PutAt(c.Gen(), "fresh", 4)
	if v, ok := c.Get("fresh"); !ok || v != 4 {
		t.Fatal("a put at the current generation was dropped")
	}
}

// Range sees exactly the resident set, most recently used first.
func TestRangeSeesResidentSet(t *testing.T) {
	c := New[int](3)
	for i, k := range []string{"a", "b", "c", "d"} {
		c.Put(k, i)
	}
	c.Get("b")
	if got, want := resident(c), []string{"b", "d", "c"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Range = %v, want %v", got, want)
	}
}

// A negative capacity is the disabled cache: it stores nothing, and still
// counts generations.
func TestNegativeCapacityStoresNothing(t *testing.T) {
	c := New[int](-1)
	c.Put("a", 1)
	c.PutAt(c.Gen(), "b", 2)
	if _, ok := c.Get("a"); ok || c.Len() != 0 || len(resident(c)) != 0 {
		t.Fatal("a disabled cache stored a value")
	}
	if c.Roll() != 1 || c.Gen() != 1 {
		t.Fatal("a disabled cache must still roll")
	}
}

// Mixed gets, puts and rolls from 8 goroutines (run under -race); the
// structure must stay a consistent list of at most capacity entries.
func TestConcurrent(t *testing.T) {
	const capacity = 32
	c := New[int](capacity)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprint((w*31 + i) % 100)
				gen := c.Gen()
				if _, ok := c.Get(k); !ok {
					c.PutAt(gen, k, i)
				}
				if w == 0 && i%500 == 499 {
					c.Roll()
				}
			}
		}(w)
	}
	wg.Wait()
	keys := resident(c)
	if len(keys) != c.Len() || len(keys) > capacity {
		t.Fatalf("Range saw %d entries, Len = %d, capacity %d", len(keys), c.Len(), capacity)
	}
	sort.Strings(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			t.Fatalf("key %s is resident twice", keys[i])
		}
	}
	if c.Gen() != 4 {
		t.Fatalf("Gen = %d after 4 rolls", c.Gen())
	}
}

// A steady-state put (resident key, or eviction at capacity) allocates
// nothing: entries live in one slice, not in a node each.
func TestPutAllocatesNothingPerEntry(t *testing.T) {
	c := New[int](64)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprint("key-", i)
		c.Put(keys[i], i)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() { c.Put(keys[i%len(keys)], i); i++ }); n != 0 {
		t.Fatalf("steady-state Put allocates %v per call, want 0", n)
	}
}
