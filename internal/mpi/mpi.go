// Package mpi provides the rank-addressed message-passing substrate
// PFTool is written against. The paper builds PFTool on MPI with one
// Manager process and pools of ReadDir/Worker/TapeProc helpers; this
// package supplies the same programming model — a communicator of N
// ranks, tagged Send/Recv with MPI matching semantics — on top of the
// simulation clock, so every blocking receive parks in virtual time.
package mpi

import (
	"fmt"

	"repro/internal/simtime"
)

// Any matches any source rank or any tag in Recv.
const Any = -1

// Message is one delivered message.
type Message struct {
	From int
	Tag  int
	Data interface{}
}

// Comm is a communicator of size N. Rank bodies are actors on the
// simulation clock.
type Comm struct {
	clock  *simtime.Clock
	boxes  []*simtime.Mailbox[Message]
	held   [][]Message // messages received but not yet matched, per rank
	closed []bool
	wg     *simtime.WaitGroup
	sent   int
}

// New creates a communicator with n ranks.
func New(clock *simtime.Clock, n int) *Comm {
	if n <= 0 {
		panic("mpi: communicator size must be positive")
	}
	c := &Comm{
		clock:  clock,
		boxes:  make([]*simtime.Mailbox[Message], n),
		held:   make([][]Message, n),
		closed: make([]bool, n),
		wg:     simtime.NewWaitGroup(clock),
	}
	for i := range c.boxes {
		c.boxes[i] = simtime.NewMailbox[Message](clock)
	}
	return c
}

// Sent reports the total messages sent (a cheap progress metric).
func (c *Comm) Sent() int { return c.sent }

// Start launches fn as the actor for the given rank.
func (c *Comm) Start(rank int, fn func()) {
	c.check(rank)
	c.wg.Add(1)
	c.clock.Go(func() {
		defer c.wg.Done()
		fn()
	})
}

// Wait blocks until every started rank body has returned.
func (c *Comm) Wait() { c.wg.Wait() }

// Send delivers a message to rank `to`. Sends never block (buffered
// standard-mode send); ordering between one sender/receiver pair is
// preserved. The message is queued by value, so a send allocates only
// what boxing data into Message.Data costs: nothing for a pointer.
// Sending to a closed mailbox silently drops the message, matching a
// receiver that has exited during shutdown or died with its machine:
// rank death is not an error at the transport layer, it is the peer's
// job (e.g. PFTool's WatchDog) to notice and react.
func (c *Comm) Send(from, to, tag int, data interface{}) {
	c.check(to)
	c.sent++
	if c.closed[to] {
		return
	}
	c.boxes[to].Push(Message{From: from, Tag: tag, Data: data})
}

// Recv blocks until a message matching (from, tag) arrives; Any acts as
// a wildcard. Non-matching messages are held aside and stay available
// for later receives, per MPI matching semantics. ok is false when the
// rank's mailbox was closed and no matching message remains.
func (c *Comm) Recv(rank, from, tag int) (Message, bool) {
	c.check(rank)
	// First scan messages already held aside.
	for i, m := range c.held[rank] {
		if matches(m, from, tag) {
			c.held[rank] = append(c.held[rank][:i], c.held[rank][i+1:]...)
			return m, true
		}
	}
	for {
		m, ok := c.boxes[rank].Pop()
		if !ok {
			return Message{}, false
		}
		if matches(m, from, tag) {
			return m, true
		}
		c.held[rank] = append(c.held[rank], m)
	}
}

// Close closes a rank's mailbox: pending matching receives drain what
// is queued, then return ok=false. Further sends to the rank are
// dropped. Closing a single rank models that rank dying mid-run (a
// crashed mover node): messages already queued still drain — they were
// in flight when the rank died — but nothing new arrives, and once
// drained every Recv on the rank reports ok=false so its body can
// exit. Close is idempotent.
func (c *Comm) Close(rank int) {
	c.check(rank)
	if c.closed[rank] {
		return
	}
	c.closed[rank] = true
	c.boxes[rank].Close()
}

// CloseAll closes every mailbox (shutdown broadcast).
func (c *Comm) CloseAll() {
	for i := range c.boxes {
		c.Close(i)
	}
}

func (c *Comm) check(rank int) {
	if rank < 0 || rank >= len(c.boxes) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, len(c.boxes)))
	}
}

func matches(m Message, from, tag int) bool {
	return (from == Any || m.From == from) && (tag == Any || m.Tag == tag)
}
