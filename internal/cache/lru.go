package cache

// lruNode is one block on a recency list.
type lruNode struct {
	lba        int64
	prev, next int32
	dirty      bool
}

// LRU is an index-linked recency list of blocks, the one both the
// BlockStore and the host buffer cache keep their residents in. A Table
// maps each block to its node; the nodes live in one flat slab and link
// by index around the sentinel node 0, so steady-state churn allocates
// nothing and the list walks stay in cache. Each node carries its block
// and a dirty bit. The front is the most recently added or moved node,
// the back the least recent; node id 0 marks the end of a walk.
type LRU struct {
	index Table // block -> node
	nodes []lruNode
	free  int32 // free-list head, linked through next; 0 = empty
}

// NewLRU returns an empty list for an owner that holds at most capacity
// blocks and adds a block before it evicts one: its slab is sized once
// for capacity+1 nodes and the sentinel.
func NewLRU(capacity int) LRU {
	return LRU{nodes: make([]lruNode, 1, capacity+2)}
}

// Len reports the number of blocks on the list.
func (l *LRU) Len() int { return l.index.Len() }

// Back returns the least recent node, or 0 when the list is empty.
func (l *LRU) Back() int32 { return l.nodes[0].prev }

// Add returns block b's node and whether b was on the list. An absent
// b is first added at the front with the given dirty bit; a present
// one stays where it is.
func (l *LRU) Add(b int64, dirty bool) (int32, bool) {
	slot, had := l.index.slot(b)
	if had {
		return *slot, true
	}
	n := l.free
	if n != 0 {
		l.free = l.nodes[n].next
	} else {
		n = int32(len(l.nodes))
		l.nodes = append(l.nodes, lruNode{})
	}
	l.nodes[n] = lruNode{lba: b, dirty: dirty}
	*slot = n
	l.pushFront(n)
	return n, false
}

// MoveToFront makes node n the most recent.
func (l *LRU) MoveToFront(n int32) {
	l.unlink(n)
	l.pushFront(n)
}

// MarkDirty sets node n's dirty bit.
func (l *LRU) MarkDirty(n int32) { l.nodes[n].dirty = true }

// Remove takes node n off the list and reports its block and dirty bit.
func (l *LRU) Remove(n int32) (b int64, dirty bool) {
	l.unlink(n)
	nd := &l.nodes[n]
	l.index.Delete(nd.lba)
	nd.next, l.free = l.free, n
	return nd.lba, nd.dirty
}

// FlushDirty returns the dirty blocks from back to front and clears
// their dirty bits.
func (l *LRU) FlushDirty() []int64 {
	var out []int64
	for n := l.Back(); n != 0; n = l.nodes[n].prev {
		if l.nodes[n].dirty {
			l.nodes[n].dirty = false
			out = append(out, l.nodes[n].lba)
		}
	}
	return out
}

// Clear removes every block, keeping the storage.
func (l *LRU) Clear() {
	l.index.Clear()
	l.nodes = append(l.nodes[:0], lruNode{})
	l.free = 0
}

func (l *LRU) unlink(n int32) {
	nd := &l.nodes[n]
	l.nodes[nd.prev].next = nd.next
	l.nodes[nd.next].prev = nd.prev
}

func (l *LRU) pushFront(n int32) {
	h := l.nodes[0].next
	l.nodes[n].prev, l.nodes[n].next = 0, h
	l.nodes[h].prev = n
	l.nodes[0].next = n
}
