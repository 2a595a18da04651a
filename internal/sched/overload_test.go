package sched

import (
	"errors"
	"testing"
	"time"

	"repro/internal/simtime"
)

func TestDeadlineRejectedAtAdmit(t *testing.T) {
	c := simtime.NewClock()
	s := Of(c)
	st := s.Station("test")
	s.SetLimit("test", 1)
	var got error
	c.Go(func() {
		c.Sleep(10 * time.Second)
		g := st.Admit(Item{Kind: "x", QoS: QoS{Deadline: 5 * time.Second}})
		got = g.Err()
		g.Done() // must be a no-op on a refused grant
	})
	c.RunFor()
	if !errors.Is(got, ErrDeadlineExceeded) {
		t.Fatalf("Err = %v, want ErrDeadlineExceeded", got)
	}
	if st.inFlight != 0 {
		t.Fatalf("refused grant holds a slot: inFlight=%d", st.inFlight)
	}
}

func TestDeadlineCancelsQueuedItemWhenItExpires(t *testing.T) {
	c := simtime.NewClock()
	s := Of(c)
	st := s.Station("test")
	s.SetLimit("test", 1)
	var rejectedAt simtime.Duration = -1
	var got error
	c.Go(func() {
		// Occupy the only slot well past the second item's deadline.
		g := st.Admit(Item{Kind: "hold"})
		c.Sleep(time.Minute)
		g.Done()
	})
	c.Go(func() {
		g := st.Admit(Item{Kind: "doomed", QoS: QoS{Deadline: 10 * time.Second}})
		got = g.Err()
		rejectedAt = c.Now()
	})
	c.RunFor()
	if !errors.Is(got, ErrDeadlineExceeded) {
		t.Fatalf("queued item got %v, want ErrDeadlineExceeded", got)
	}
	// The deadline timer must cancel it AT the deadline, not when the
	// slot frees at t=1m.
	if rejectedAt != 10*time.Second {
		t.Fatalf("cancelled at %v, want 10s (the deadline, via the wake timer)", rejectedAt)
	}
	if s.queued() != 0 {
		t.Fatalf("queue not drained: %d", s.queued())
	}
}

func TestDeadlineItemGrantedWhenSlotFreesInTime(t *testing.T) {
	c := simtime.NewClock()
	s := Of(c)
	st := s.Station("test")
	s.SetLimit("test", 1)
	var got error = errors.New("never ran")
	c.Go(func() {
		g := st.Admit(Item{Kind: "hold"})
		c.Sleep(5 * time.Second)
		g.Done()
	})
	c.Go(func() {
		g := st.Admit(Item{Kind: "ok", QoS: QoS{Deadline: 30 * time.Second}})
		got = g.Err()
		g.Done()
	})
	c.RunFor()
	if got != nil {
		t.Fatalf("item with slack got %v, want grant", got)
	}
}

func TestShedWatermarkRejectsBackloggedClass(t *testing.T) {
	c := simtime.NewClock()
	s := Of(c)
	st := s.Station("test")
	s.SetLimit("test", 1)
	s.SetShedWatermark(Batch, 10*time.Second)
	var batchErr, interErr error = errors.New("unset"), errors.New("unset")
	c.Go(func() {
		// Slot holder, plus one queued batch item that will age past the
		// watermark.
		g := st.Admit(Item{Kind: "hold", QoS: QoS{Class: Batch}})
		c.Sleep(time.Minute)
		g.Done()
	})
	c.Go(func() {
		g := st.Admit(Item{Kind: "queued", QoS: QoS{Class: Batch}})
		g.Done()
	})
	c.Go(func() {
		// Arrives when the queued batch item has waited 30s > 10s: shed.
		c.Sleep(30 * time.Second)
		g := st.Admit(Item{Kind: "late-batch", QoS: QoS{Class: Batch}})
		batchErr = g.Err()
		g.Done()
	})
	c.Go(func() {
		// Interactive has no watermark: it queues and is eventually
		// granted despite the batch backlog.
		c.Sleep(30 * time.Second)
		g := st.Admit(Item{Kind: "late-inter", QoS: QoS{Class: Interactive}})
		interErr = g.Err()
		g.Done()
	})
	c.RunFor()
	if !errors.Is(batchErr, ErrShed) {
		t.Fatalf("late batch item got %v, want ErrShed", batchErr)
	}
	if interErr != nil {
		t.Fatalf("interactive item got %v, want grant (no watermark on its class)", interErr)
	}
}

func TestOverloadAccountingBalances(t *testing.T) {
	c := simtime.NewClock()
	s := Of(c)
	st := s.Station("test")
	s.SetLimit("test", 1)
	s.SetShedWatermark(Batch, 5*time.Second)
	for i := 0; i < 3; i++ {
		c.Go(func() {
			g := st.Admit(Item{Kind: "work", QoS: QoS{Class: Batch}})
			if g.Err() != nil {
				return
			}
			c.Sleep(20 * time.Second)
			g.Done()
		})
	}
	c.Go(func() {
		g := st.Admit(Item{Kind: "doomed", QoS: QoS{Class: Batch, Deadline: 8 * time.Second}})
		if g.Err() == nil {
			g.Done()
		}
	})
	c.RunFor()
	m := s.metrics()
	sub := m.submitted[Batch].Value()
	comp := m.completed[Batch].Value()
	var shed float64
	if m.shed[Batch] != nil {
		shed = m.shed[Batch].Value()
	}
	var dl float64
	if st.ctrDeadline != nil {
		dl = st.ctrDeadline.Value()
	}
	if sub != comp+shed+dl {
		t.Fatalf("accounting: submitted %v != completed %v + shed %v + deadline %v", sub, comp, shed, dl)
	}
	if shed == 0 && dl == 0 {
		t.Fatal("test exercised neither shed nor deadline path")
	}
}
