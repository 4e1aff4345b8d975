package sim

// refHeap is the original binary-heap event queue, kept as the
// reference implementation: the equivalence fuzz and property tests
// drain it alongside the calendar queue and demand identical
// (time, seq) firing orders.
type refHeap struct {
	h []entry
}

func (q *refHeap) len() int { return len(q.h) }

// peekAt reports the earliest pending time. Caller guarantees len > 0.
func (q *refHeap) peekAt() Time { return q.h[0].at }

// reset empties the heap, keeping its storage.
func (q *refHeap) reset() { q.h = q.h[:0] }

func (q *refHeap) push(e entry) {
	q.h = append(q.h, e)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.h[i].less(q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *refHeap) pop() entry {
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	// Zero the vacated slot so the slack of a drained (and possibly
	// recycled) heap retains no event closures.
	q.h[last] = entry{}
	q.h = q.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(q.h) && q.h[l].less(q.h[smallest]) {
			smallest = l
		}
		if r < len(q.h) && q.h[r].less(q.h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		q.h[i], q.h[smallest] = q.h[smallest], q.h[i]
		i = smallest
	}
}
