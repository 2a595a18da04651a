package simtime

import "sync/atomic"

// slot is a process-wide index for a per-clock singleton (the
// telemetry registry, the fabric, the scheduler...). Packages allocate
// one Slot at init and resolve it against any clock with Clock.SlotOf.
// A value lives as long as its clock, so higher layers share one
// instance per simulation without global state.
//
// With one clock per island and lookups on the hot path (every counter
// bump resolves the registry), SlotOf's fast path is a single atomic
// load plus an index: no lock, no allocation, safe from any goroutine.
type slot struct {
	idx int32
}

// nextSlot hands out slot indices. Slots are only created from package
// init (var x = simtime.NewSlot()), so the count is tiny and fixed
// before any clock exists.
var nextSlot atomic.Int32

// NewSlot allocates a fresh slot index. Call it once per singleton,
// from a package-level var initializer.
func NewSlot() *slot {
	return &slot{idx: nextSlot.Add(1) - 1}
}

// SlotOf returns the value stored on the clock under s, creating it
// with mk(c) on first use. mk should be a named top-level function so
// the call site allocates nothing; it runs with the clock's mutex held
// and must not re-enter SlotOf on the same clock.
func (c *Clock) SlotOf(s *slot, mk func(*Clock) interface{}) interface{} {
	if tbl, _ := c.slots.Load().([]interface{}); int(s.idx) < len(tbl) {
		if v := tbl[s.idx]; v != nil {
			return v
		}
	}
	return c.slotOfSlow(s, mk)
}

func (c *Clock) slotOfSlow(s *slot, mk func(*Clock) interface{}) interface{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	tbl, _ := c.slots.Load().([]interface{})
	if int(s.idx) < len(tbl) && tbl[s.idx] != nil {
		return tbl[s.idx]
	}
	v := mk(c)
	// Copy-on-write: readers hold no lock, so never mutate a published
	// table in place.
	grown := make([]interface{}, int(nextSlot.Load()))
	copy(grown, tbl)
	grown[s.idx] = v
	c.slots.Store(grown)
	return v
}
