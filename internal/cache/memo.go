package cache

// Memo is a count-bounded map with least-recently-used eviction, the one
// recency list behind the simulator's memoization tables (per-snapshot path
// trees, the measurement environment's snapshot and path caches). Put is
// first-store-wins, so racing computations of the same deterministic value
// converge on one shared instance. Not safe for concurrent use: every
// caller guards its Memo with its own mutex.
type Memo[K comparable, V any] struct {
	cap        int
	nodes      map[K]*memoEntry[K, V]
	head, tail *memoEntry[K, V]
}

type memoEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *memoEntry[K, V]
}

// NewMemo returns an empty Memo holding at most capacity entries.
func NewMemo[K comparable, V any](capacity int) *Memo[K, V] {
	return &Memo[K, V]{cap: capacity, nodes: make(map[K]*memoEntry[K, V], capacity)}
}

// Len returns the number of entries held.
func (l *Memo[K, V]) Len() int { return len(l.nodes) }

// Get returns the cached value and refreshes its recency.
func (l *Memo[K, V]) Get(k K) (V, bool) {
	nd, ok := l.nodes[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.moveToFront(nd)
	return nd.val, true
}

// Put inserts a value, evicting the least recently used entry beyond
// capacity. When the key is already present the existing value wins and is
// returned.
func (l *Memo[K, V]) Put(k K, v V) V {
	if nd, ok := l.nodes[k]; ok {
		l.moveToFront(nd)
		return nd.val
	}
	nd := &memoEntry[K, V]{key: k, val: v}
	l.nodes[k] = nd
	l.pushFront(nd)
	if len(l.nodes) > l.cap {
		lru := l.tail
		l.unlink(lru)
		delete(l.nodes, lru.key)
	}
	return v
}

func (l *Memo[K, V]) pushFront(nd *memoEntry[K, V]) {
	nd.prev = nil
	nd.next = l.head
	if l.head != nil {
		l.head.prev = nd
	}
	l.head = nd
	if l.tail == nil {
		l.tail = nd
	}
}

func (l *Memo[K, V]) unlink(nd *memoEntry[K, V]) {
	if nd.prev != nil {
		nd.prev.next = nd.next
	} else {
		l.head = nd.next
	}
	if nd.next != nil {
		nd.next.prev = nd.prev
	} else {
		l.tail = nd.prev
	}
	nd.prev, nd.next = nil, nil
}

func (l *Memo[K, V]) moveToFront(nd *memoEntry[K, V]) {
	if l.head == nd {
		return
	}
	l.unlink(nd)
	l.pushFront(nd)
}
