package simtime

// fifo is a slice-backed FIFO used in place of container/list for
// waiter and mailbox queues: pushes append, pops advance a head index,
// and the backing array is reused once drained, so steady-state
// operation allocates nothing (a list.Element per entry otherwise).
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int  { return len(q.buf) - q.head }
func (q *fifo[T]) front() *T { return &q.buf[q.head] }

func (q *fifo[T]) push(v T) {
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		var zero T
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = zero
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// Resource is a counted resource with FIFO admission: think tape
// drives, link transmission slots, or CPU slots. Acquire blocks in
// virtual time until the requested units are available; waiters are
// served strictly in arrival order (no barging), which models the FIFO
// queues of real devices and keeps simulations fair and reproducible.
type Resource struct {
	clock *Clock
	cap   int
	inUse int
	wait  fifo[resWaiter]
}

type resWaiter struct {
	n int
	a *actor
}

// NewResource creates a resource with capacity units. Capacity must be
// positive.
func NewResource(clock *Clock, capacity int) *Resource {
	if capacity <= 0 {
		panic("simtime: resource capacity must be positive")
	}
	return &Resource{clock: clock, cap: capacity}
}

// Cap reports the resource capacity.
func (r *Resource) Cap() int { return r.cap }

// Acquire blocks the calling actor until n units are available and the
// caller is at the head of the FIFO queue. n must be in [1, capacity].
func (r *Resource) Acquire(n int) {
	if n <= 0 || n > r.cap {
		panic("simtime: Acquire out of range")
	}
	r.clock.mu.Lock()
	if r.wait.len() == 0 && r.inUse+n <= r.cap {
		r.inUse += n
		r.clock.mu.Unlock()
		return
	}
	a := r.clock.selfLocked()
	r.wait.push(resWaiter{n: n, a: a})
	r.clock.park(a) // releases the lock
}

// TryAcquire acquires n units without blocking, reporting success.
func (r *Resource) TryAcquire(n int) bool {
	if n <= 0 || n > r.cap {
		panic("simtime: TryAcquire out of range")
	}
	r.clock.mu.Lock()
	defer r.clock.mu.Unlock()
	if r.wait.len() == 0 && r.inUse+n <= r.cap {
		r.inUse += n
		return true
	}
	return false
}

// Release returns n units and admits queued waiters in FIFO order.
func (r *Resource) Release(n int) {
	r.clock.mu.Lock()
	defer r.clock.mu.Unlock()
	if n <= 0 || n > r.inUse {
		panic("simtime: Release out of range")
	}
	r.inUse -= n
	for r.wait.len() > 0 {
		w := r.wait.front()
		if r.inUse+w.n > r.cap {
			break // strict FIFO: head of queue blocks followers
		}
		r.inUse += w.n
		r.clock.unpark(w.a)
		r.wait.pop()
	}
}

// SetCap resizes the resource. Raising capacity admits queued waiters
// in FIFO order; lowering it never evicts holders — usage above the new
// capacity simply drains as units are released, with no admissions in
// the meantime. This models capacity loss from component failure (a
// drive pool shrinking as drives die) and restoration on repair.
func (r *Resource) SetCap(n int) {
	if n <= 0 {
		panic("simtime: resource capacity must be positive")
	}
	r.clock.mu.Lock()
	defer r.clock.mu.Unlock()
	r.cap = n
	for r.wait.len() > 0 {
		w := r.wait.front()
		if w.n > r.cap || r.inUse+w.n > r.cap {
			break // strict FIFO: head of queue blocks followers
		}
		r.inUse += w.n
		r.clock.unpark(w.a)
		r.wait.pop()
	}
}

// Mailbox is an unbounded FIFO of T values with blocking Pop. It is
// the inter-actor communication primitive: MPI mailboxes, work queues,
// and daemon inboxes are all Mailboxes. A typed mailbox hands its values
// over as they are: a Push of a pointer or small struct stores it in the
// FIFO's array and allocates nothing. Close wakes all blocked Poppers.
type Mailbox[T any] struct {
	clock  *Clock
	items  fifo[T]
	wait   fifo[*actor]
	closed bool
}

// Queue is a Mailbox of untyped values.
type Queue = Mailbox[any]

// NewMailbox creates an empty mailbox on clock.
func NewMailbox[T any](clock *Clock) *Mailbox[T] {
	return &Mailbox[T]{clock: clock}
}

// NewQueue creates an empty queue on clock.
func NewQueue(clock *Clock) *Queue { return NewMailbox[any](clock) }

// Push appends v and wakes one blocked Pop, if any. Push on a closed
// mailbox panics (it indicates a protocol bug in the caller).
func (q *Mailbox[T]) Push(v T) {
	q.clock.mu.Lock()
	defer q.clock.mu.Unlock()
	if q.closed {
		panic("simtime: Push on closed queue")
	}
	q.items.push(v)
	if q.wait.len() > 0 {
		q.clock.unpark(q.wait.pop())
	}
}

// Pop removes and returns the head value, blocking in virtual time
// while the mailbox is empty. ok is false, and v the zero T, if the
// mailbox was closed and drained.
func (q *Mailbox[T]) Pop() (v T, ok bool) {
	for {
		q.clock.mu.Lock()
		if q.items.len() > 0 {
			v = q.items.pop()
			q.clock.mu.Unlock()
			return v, true
		}
		if q.closed {
			q.clock.mu.Unlock()
			return v, false
		}
		a := q.clock.selfLocked()
		q.wait.push(a)
		q.clock.park(a) // releases the lock
	}
}

// Len reports the number of queued values.
func (q *Mailbox[T]) Len() int {
	q.clock.mu.Lock()
	defer q.clock.mu.Unlock()
	return q.items.len()
}

// Close marks the mailbox closed; blocked and future Pops return
// ok=false once drained. Closing twice is a no-op.
func (q *Mailbox[T]) Close() {
	q.clock.mu.Lock()
	defer q.clock.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	for q.wait.len() > 0 {
		q.clock.unpark(q.wait.pop())
	}
}

// WaitGroup counts outstanding work items in virtual time. Unlike
// sync.WaitGroup it parks the waiter through the simulation clock, so
// waiting does not stall virtual time.
type WaitGroup struct {
	clock *Clock
	n     int
	wait  []*actor
}

// NewWaitGroup creates a WaitGroup on clock.
func NewWaitGroup(clock *Clock) *WaitGroup {
	return &WaitGroup{clock: clock}
}

// Add adds delta (which may be negative) to the counter. The counter
// must not go negative. When it reaches zero all Waiters wake.
func (w *WaitGroup) Add(delta int) {
	w.clock.mu.Lock()
	defer w.clock.mu.Unlock()
	w.n += delta
	if w.n < 0 {
		panic("simtime: negative WaitGroup counter")
	}
	if w.n == 0 {
		for _, a := range w.wait {
			w.clock.unpark(a)
		}
		w.wait = nil
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks the calling actor until the counter is zero.
func (w *WaitGroup) Wait() {
	w.clock.mu.Lock()
	if w.n == 0 {
		w.clock.mu.Unlock()
		return
	}
	a := w.clock.selfLocked()
	w.wait = append(w.wait, a)
	w.clock.park(a)
}

// Latch is a one-shot completion gate: Wait parks the calling actor
// until Signal, which wakes every waiter (then and later ones return
// immediately). It is the lean alternative to a one-item Queue for
// completion mailboxes — no item list, no per-latch allocation when
// embedded by value — and the fabric uses one per flow.
type Latch struct {
	clock *Clock
	done  bool
	first *actor   // first waiter (the common case; no slice alloc)
	wait  []*actor // additional waiters, rarely needed
}

// MakeLatch returns a latch value ready to embed.
func MakeLatch(clock *Clock) Latch { return Latch{clock: clock} }

// Signal opens the latch, waking every current waiter. Signaling twice
// is a no-op.
func (l *Latch) Signal() {
	l.clock.mu.Lock()
	defer l.clock.mu.Unlock()
	if l.done {
		return
	}
	l.done = true
	if l.first != nil {
		l.clock.unpark(l.first)
		l.first = nil
	}
	for _, a := range l.wait {
		l.clock.unpark(a)
	}
	l.wait = nil
}

// Wait blocks the calling actor until the latch is signaled.
func (l *Latch) Wait() {
	l.clock.mu.Lock()
	if l.done {
		l.clock.mu.Unlock()
		return
	}
	a := l.clock.selfLocked()
	if l.first == nil {
		l.first = a
	} else {
		l.wait = append(l.wait, a)
	}
	l.clock.park(a)
}
