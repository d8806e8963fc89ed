package dbms

import (
	"testing"
	"testing/quick"
)

func TestLRUBasicHitMiss(t *testing.T) {
	c := newLRUCache(3)
	k1, k2, k3, k4 := makeKey(0, 1), makeKey(0, 2), makeKey(0, 3), makeKey(0, 4)
	for _, k := range []pageKey{k1, k2, k3} {
		if c.Get(k) {
			t.Fatalf("cold cache hit for %v", k)
		}
		c.Put(k)
	}
	if !c.Get(k1) || !c.Get(k2) || !c.Get(k3) {
		t.Fatal("warm pages should hit")
	}
	// Insert a 4th page: k1 was promoted above, so eviction order is
	// k1 (MRU-promoted), k2, k3 — the LRU victim is k1? No: Get promotes,
	// so after Get(k1),Get(k2),Get(k3) the LRU is k1.
	ev, had := c.Put(k4)
	if !had {
		t.Fatal("expected an eviction")
	}
	if ev.key != k1 {
		t.Errorf("evicted %v, want k1=%v", ev.key, k1)
	}
	if c.Get(k1) {
		t.Error("evicted page should miss")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := newLRUCache(2)
	a, b, d := makeKey(1, 10), makeKey(1, 11), makeKey(1, 12)
	c.Put(a)
	c.Put(b)
	c.Get(a) // a is now MRU, b is LRU
	ev, had := c.Put(d)
	if !had || ev.key != b {
		t.Errorf("expected b evicted, got %+v had=%v", ev, had)
	}
}

func TestLRUDirtyAccounting(t *testing.T) {
	c := newLRUCache(4)
	k := makeKey(0, 7)
	c.Put(k)
	if !c.MarkDirty(k, 0, 0) {
		t.Fatal("first MarkDirty should report newly dirty")
	}
	if c.MarkDirty(k, 0, 0) {
		t.Fatal("second MarkDirty should be a no-op")
	}
	if c.Dirty() != 1 {
		t.Fatalf("Dirty = %d, want 1", c.Dirty())
	}
	c.Clean(k)
	if c.Dirty() != 0 {
		t.Fatalf("after Clean, Dirty = %d, want 0", c.Dirty())
	}
	if c.MarkDirty(makeKey(0, 99), 0, 0) {
		t.Error("marking a non-resident page should fail")
	}
}

func TestLRUDirtyEviction(t *testing.T) {
	c := newLRUCache(1)
	k1, k2 := makeKey(0, 1), makeKey(0, 2)
	c.Put(k1)
	c.MarkDirty(k1, 0, 0)
	ev, had := c.Put(k2)
	if !had || !ev.dirty {
		t.Errorf("dirty eviction not reported: %+v had=%v", ev, had)
	}
	if c.Dirty() != 0 {
		t.Errorf("dirty count = %d after dirty eviction, want 0", c.Dirty())
	}
}

func TestLRUCollectDirtyColdFirst(t *testing.T) {
	c := newLRUCache(10)
	for p := int64(0); p < 5; p++ {
		k := makeKey(0, p)
		c.Put(k)
		c.MarkDirty(k, 0, 0)
	}
	got := c.CollectDirty(3)
	if len(got) != 3 {
		t.Fatalf("CollectDirty(3) returned %d keys", len(got))
	}
	// Coldest first: pages 0, 1, 2 were inserted first.
	for i, want := range []int64{0, 1, 2} {
		if got[i] != makeKey(0, want) {
			t.Errorf("CollectDirty[%d] = %v, want page %d", i, got[i], want)
		}
	}
	if got := c.CollectDirty(0); got != nil {
		t.Errorf("CollectDirty(0) = %v, want nil", got)
	}
}

func TestLRUDropDB(t *testing.T) {
	c := newLRUCache(10)
	c.Put(makeKey(1, 0))
	c.Put(makeKey(1, 1))
	c.Put(makeKey(2, 0))
	c.DropDB(1)
	if c.Len() != 1 || c.Contains(makeKey(1, 0)) {
		t.Errorf("DropDB left pages behind: len=%d", c.Len())
	}
}

func TestLRUTouchedMax(t *testing.T) {
	c := newLRUCache(3)
	for p := int64(0); p < 10; p++ {
		c.Put(makeKey(0, p))
	}
	if c.TouchedMax() != 3 {
		t.Errorf("TouchedMax = %d, want cap 3", c.TouchedMax())
	}
}

func TestMakeKeyRoundTrip(t *testing.T) {
	f := func(dbID uint16, page uint32) bool {
		k := makeKey(int(dbID), int64(page))
		return k.dbID() == int(dbID)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: cache size never exceeds capacity and dirty ≤ len.
func TestPropertyLRUInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		c := newLRUCache(16)
		for _, op := range ops {
			page := int64(op % 64)
			switch op % 3 {
			case 0:
				c.Put(makeKey(0, page))
			case 1:
				c.Get(makeKey(0, page))
			case 2:
				c.Put(makeKey(0, page))
				c.MarkDirty(makeKey(0, page), 0, 0)
			}
			if c.Len() > 16 || c.Dirty() > c.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: LRU list and table stay consistent (walking the list finds
// exactly the table's keys).
func TestPropertyLRUListTableConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		c := newLRUCache(8)
		for _, op := range ops {
			page := int64(op % 32)
			if op%4 == 3 {
				c.Drop(makeKey(0, page))
			} else {
				c.Put(makeKey(0, page))
			}
		}
		n := 0
		for f := c.head; f != nil; f = f.next {
			if _, ok := c.table[f.key]; !ok {
				return false
			}
			n++
		}
		return n == len(c.table)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
