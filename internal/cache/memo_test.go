package cache

import "testing"

func TestMemoEvictsLeastRecentlyUsed(t *testing.T) {
	l := NewMemo[int, string](3)
	l.Put(1, "a")
	l.Put(2, "b")
	l.Put(3, "c")
	// Touch 1 so 2 becomes the eviction victim.
	if v, ok := l.Get(1); !ok || v != "a" {
		t.Fatalf("get(1) = %q, %v", v, ok)
	}
	l.Put(4, "d")
	if _, ok := l.Get(2); ok {
		t.Error("2 survived past capacity despite being least recently used")
	}
	for _, k := range []int{1, 3, 4} {
		if _, ok := l.Get(k); !ok {
			t.Errorf("%d missing after eviction of the LRU entry", k)
		}
	}
	if l.Len() != 3 {
		t.Errorf("len = %d, want 3", l.Len())
	}
}

func TestMemoDuplicatePutFirstStoreWins(t *testing.T) {
	l := NewMemo[string, int](2)
	if got := l.Put("k", 1); got != 1 {
		t.Fatalf("first put returned %d", got)
	}
	// Racing computations of the same deterministic value must converge on
	// the first stored instance.
	if got := l.Put("k", 2); got != 1 {
		t.Errorf("duplicate put returned %d, want the existing 1", got)
	}
	if v, _ := l.Get("k"); v != 1 {
		t.Errorf("get returned %d, want 1", v)
	}
	if l.Len() != 1 {
		t.Errorf("len = %d, want 1", l.Len())
	}
}

func TestMemoSingleEntryChurn(t *testing.T) {
	l := NewMemo[int, int](1)
	for i := 0; i < 10; i++ {
		l.Put(i, i)
		if l.Len() != 1 {
			t.Fatalf("len = %d after put %d, want 1", l.Len(), i)
		}
	}
	if v, ok := l.Get(9); !ok || v != 9 {
		t.Fatalf("newest entry lost: %d, %v", v, ok)
	}
}
