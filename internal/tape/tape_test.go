package tape

import (
	"errors"
	"testing"
	"time"

	"repro/internal/simtime"
)

// run executes fn as the sole actor and returns the elapsed virtual time.
func run(t *testing.T, fn func(c *simtime.Clock, lib *Library)) time.Duration {
	t.Helper()
	c := simtime.NewClock()
	lib := NewLibrary(c, 2, 4, 1, LTO4())
	c.Go(func() { fn(c, lib) })
	end, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return end
}

func TestMountChargesTime(t *testing.T) {
	spec := LTO4()
	end := run(t, func(c *simtime.Clock, lib *Library) {
		d := lib.Drive(0)
		d.Acquire()
		defer d.Release()
		cart, _ := lib.Cartridge("VOL0001")
		if err := lib.Mount(d, cart); err != nil {
			t.Error(err)
		}
	})
	want := spec.RobotTime + spec.MountTime + spec.LabelVerifyTime
	if end != want {
		t.Errorf("mount took %v, want %v", end, want)
	}
}

func TestAppendAssignsSequentialSeqs(t *testing.T) {
	run(t, func(c *simtime.Clock, lib *Library) {
		d := lib.Drive(0)
		d.Acquire()
		defer d.Release()
		cart, _ := lib.Cartridge("VOL0001")
		lib.Mount(d, cart)
		for i := 1; i <= 5; i++ {
			f, err := d.Append(uint64(i*100), 1e6)
			if err != nil {
				t.Fatal(err)
			}
			if f.Seq != i {
				t.Errorf("seq = %d, want %d", f.Seq, i)
			}
		}
		if len(cart.files) != 5 {
			t.Errorf("NumFiles = %d, want 5", len(cart.files))
		}
		if cart.Used() != 5e6 {
			t.Errorf("Used = %d, want 5e6", cart.Used())
		}
	})
}

func TestSmallFileEffectiveRateCollapses(t *testing.T) {
	// The paper's §6.1: 8 MB files migrate at ~4 MB/s on a ~100 MB/s
	// drive because each file is one transaction.
	spec := LTO4()
	const fileSize = 8e6
	const files = 50
	var writeTime time.Duration
	run(t, func(c *simtime.Clock, lib *Library) {
		d := lib.Drive(0)
		d.Acquire()
		defer d.Release()
		cart, _ := lib.Cartridge("VOL0001")
		lib.Mount(d, cart)
		start := c.Now()
		for i := 0; i < files; i++ {
			if _, err := d.Append(uint64(i), fileSize); err != nil {
				t.Fatal(err)
			}
		}
		writeTime = c.Now() - start
	})
	rate := files * fileSize / writeTime.Seconds() // bytes/sec
	if rate < 3e6 || rate > 5e6 {
		t.Errorf("small-file rate = %.1f MB/s, want ~4 MB/s", rate/1e6)
	}
	// Large files must approach streaming rate.
	var largeTime time.Duration
	run(t, func(c *simtime.Clock, lib *Library) {
		d := lib.Drive(0)
		d.Acquire()
		defer d.Release()
		cart, _ := lib.Cartridge("VOL0001")
		lib.Mount(d, cart)
		start := c.Now()
		d.Append(1, 100e9)
		largeTime = c.Now() - start
	})
	largeRate := 100e9 / largeTime.Seconds()
	if largeRate < 0.95*spec.StreamRate {
		t.Errorf("large-file rate = %.1f MB/s, want ~%.0f MB/s", largeRate/1e6, spec.StreamRate/1e6)
	}
}

func TestReadSeqInOrderAvoidsSeeks(t *testing.T) {
	var ordered, reverse Stats
	run(t, func(c *simtime.Clock, lib *Library) {
		d := lib.Drive(0)
		d.Acquire()
		defer d.Release()
		cart, _ := lib.Cartridge("VOL0001")
		lib.Mount(d, cart)
		for i := 0; i < 20; i++ {
			d.Append(uint64(i), 1e9)
		}
		d.rewind()
		base := d.stats
		for seq := 1; seq <= 20; seq++ {
			if _, err := d.ReadSeq(seq); err != nil {
				t.Fatal(err)
			}
		}
		after := d.stats
		ordered = Stats{Seeks: after.Seeks - base.Seeks, BusyTime: after.BusyTime - base.BusyTime}
	})
	run(t, func(c *simtime.Clock, lib *Library) {
		d := lib.Drive(0)
		d.Acquire()
		defer d.Release()
		cart, _ := lib.Cartridge("VOL0001")
		lib.Mount(d, cart)
		for i := 0; i < 20; i++ {
			d.Append(uint64(i), 1e9)
		}
		d.rewind()
		base := d.stats
		for seq := 20; seq >= 1; seq-- {
			if _, err := d.ReadSeq(seq); err != nil {
				t.Fatal(err)
			}
		}
		after := d.stats
		reverse = Stats{Seeks: after.Seeks - base.Seeks, BusyTime: after.BusyTime - base.BusyTime}
	})
	// Ordered from BOT: file 1 starts at offset 0, then purely
	// sequential — no locates at all.
	if ordered.Seeks != 0 {
		t.Errorf("ordered recall used %d seeks, want 0", ordered.Seeks)
	}
	if reverse.Seeks != 20 {
		t.Errorf("reverse recall used %d seeks, want 20", reverse.Seeks)
	}
	if reverse.BusyTime <= ordered.BusyTime {
		t.Errorf("reverse (%v) should be slower than ordered (%v)", reverse.BusyTime, ordered.BusyTime)
	}
}

func TestBeginSessionHandoffPenalty(t *testing.T) {
	spec := LTO4()
	var sameClient, handoff time.Duration
	run(t, func(c *simtime.Clock, lib *Library) {
		d := lib.Drive(0)
		d.Acquire()
		defer d.Release()
		cart, _ := lib.Cartridge("VOL0001")
		lib.Mount(d, cart)
		d.Append(1, 1e9)
		d.BeginSession("fta01")
		t0 := c.Now()
		d.BeginSession("fta01") // same machine: free
		sameClient = c.Now() - t0
		t0 = c.Now()
		d.BeginSession("fta02") // hand-off: rewind + verify
		handoff = c.Now() - t0
	})
	if sameClient != 0 {
		t.Errorf("same-client session cost %v, want 0", sameClient)
	}
	if handoff < spec.LabelVerifyTime {
		t.Errorf("hand-off cost %v, want >= label verify %v", handoff, spec.LabelVerifyTime)
	}
}

func TestAppendBeyondCapacityFails(t *testing.T) {
	run(t, func(c *simtime.Clock, lib *Library) {
		d := lib.Drive(0)
		d.Acquire()
		defer d.Release()
		cart := NewCartridge("TINY", 10e6)
		lib.AddCartridge(cart)
		lib.Mount(d, cart)
		if _, err := d.Append(1, 6e6); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Append(2, 6e6); !errors.Is(err, errFull) {
			t.Errorf("err = %v, want ErrFull", err)
		}
	})
}

func TestOperationsRequireMount(t *testing.T) {
	run(t, func(c *simtime.Clock, lib *Library) {
		d := lib.Drive(0)
		d.Acquire()
		defer d.Release()
		if _, err := d.Append(1, 1); !errors.Is(err, errNotMounted) {
			t.Errorf("Append err = %v, want ErrNotMounted", err)
		}
		if _, err := d.ReadSeq(1); !errors.Is(err, errNotMounted) {
			t.Errorf("ReadSeq err = %v, want ErrNotMounted", err)
		}
		if err := d.Unmount(); !errors.Is(err, errNotMounted) {
			t.Errorf("Unmount err = %v, want ErrNotMounted", err)
		}
		if err := d.BeginSession("x"); !errors.Is(err, errNotMounted) {
			t.Errorf("BeginSession err = %v, want ErrNotMounted", err)
		}
	})
}

func TestScratchSkipsMountedAndFull(t *testing.T) {
	run(t, func(c *simtime.Clock, lib *Library) {
		d := lib.Drive(0)
		d.Acquire()
		defer d.Release()
		first, _ := lib.Cartridge("VOL0001")
		lib.Mount(d, first)
		s, err := lib.Scratch(1e6)
		if err != nil {
			t.Fatal(err)
		}
		if s.Label == "VOL0001" {
			t.Error("Scratch returned the mounted cartridge")
		}
	})
}

func TestScratchExhausted(t *testing.T) {
	c := simtime.NewClock()
	lib := NewLibrary(c, 1, 1, 1, LTO4())
	c.Go(func() {
		d := lib.Drive(0)
		d.Acquire()
		defer d.Release()
		cart, _ := lib.Cartridge("VOL0001")
		lib.Mount(d, cart)
		if _, err := lib.Scratch(1); !errors.Is(err, ErrNoScratch) {
			t.Errorf("err = %v, want ErrNoScratch", err)
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRobotSerializesMounts(t *testing.T) {
	c := simtime.NewClock()
	lib := NewLibrary(c, 2, 4, 1, LTO4())
	spec := LTO4()
	var ends []time.Duration
	for i := 0; i < 2; i++ {
		i := i
		c.Go(func() {
			d := lib.Drive(i)
			d.Acquire()
			defer d.Release()
			cart, _ := lib.Cartridge([]string{"VOL0001", "VOL0002"}[i])
			lib.Mount(d, cart)
			ends = append(ends, c.Now())
		})
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ends) != 2 {
		t.Fatalf("got %d mounts", len(ends))
	}
	// With one robot arm, the second mount cannot finish at the same
	// time as the first: the arm is held for the exchange.
	if ends[0] == ends[1] {
		t.Error("two mounts completed simultaneously with a single robot")
	}
	_ = spec
}

func TestUnmountRewindsAndEjects(t *testing.T) {
	run(t, func(c *simtime.Clock, lib *Library) {
		d := lib.Drive(0)
		d.Acquire()
		defer d.Release()
		cart, _ := lib.Cartridge("VOL0001")
		lib.Mount(d, cart)
		d.Append(1, 1e9)
		if err := d.Unmount(); err != nil {
			t.Fatal(err)
		}
		if d.Mounted() != nil {
			t.Error("drive still holds cartridge")
		}
		s := d.stats
		if s.Rewinds != 1 {
			t.Errorf("Rewinds = %d, want 1", s.Rewinds)
		}
		if s.Unmounts != 1 {
			t.Errorf("Unmounts = %d, want 1", s.Unmounts)
		}
	})
}

func TestFileLookup(t *testing.T) {
	run(t, func(c *simtime.Clock, lib *Library) {
		d := lib.Drive(0)
		d.Acquire()
		defer d.Release()
		cart, _ := lib.Cartridge("VOL0001")
		lib.Mount(d, cart)
		d.Append(111, 5e6)
		d.Append(222, 7e6)
		f, err := cart.fileBySeq(2)
		if err != nil || f.Seq != 2 || f.Bytes != 7e6 {
			t.Errorf("FileBySeq = %+v, %v", f, err)
		}
		if _, err := cart.fileBySeq(3); !errors.Is(err, errNoSuchFile) {
			t.Errorf("missing seq err = %v", err)
		}
	})
}

func TestTotalStatsAggregates(t *testing.T) {
	c := simtime.NewClock()
	lib := NewLibrary(c, 2, 4, 2, LTO4())
	c.Go(func() {
		for i := 0; i < 2; i++ {
			d := lib.Drive(i)
			d.Acquire()
			cart, _ := lib.Cartridge([]string{"VOL0001", "VOL0002"}[i])
			lib.Mount(d, cart)
			d.Append(uint64(i), 1e6)
			d.Release()
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	total := lib.TotalStats()
	if total.Mounts != 2 || total.FilesWritten != 2 || total.BytesWritten != 2e6 {
		t.Errorf("TotalStats = %+v", total)
	}
}

func TestCorruptAtOffsetManglesOnMediaSum(t *testing.T) {
	run(t, func(c *simtime.Clock, lib *Library) {
		d := lib.Drive(0)
		d.Acquire()
		defer d.Release()
		cart, _ := lib.Cartridge("VOL0001")
		lib.Mount(d, cart)
		f1, _ := d.AppendSum(1, 1e6, 0x1111)
		f2, _ := d.AppendSum(2, 1e6, 0x2222)
		// Rot lands inside the second file.
		hit, ok := cart.CorruptAtOffset(f2.Off+10, 77)
		if !ok || hit.Seq != f2.Seq {
			t.Fatalf("rot hit %+v ok=%v, want the second file", hit, ok)
		}
		if rec, ok := cart.CorruptionFor(f2.Seq); !ok || rec.Cause != 77 || rec.Off != f2.Off+10 {
			t.Errorf("corruption record = %+v ok=%v", rec, ok)
		}
		// First file intact, second delivers a wrong digest.
		if _, sum, _ := d.ReadSeqSum(f1.Seq); sum != 0x1111 {
			t.Errorf("intact file delivers %#x, want 0x1111", sum)
		}
		if _, sum, _ := d.ReadSeqSum(f2.Seq); sum == 0x2222 {
			t.Error("rotted file still delivers the recorded digest")
		}
		// Rot past end-of-data is harmless.
		if _, ok := cart.CorruptAtOffset(cart.Used()+5, 1); ok {
			t.Error("rot in unwritten tape damaged something")
		}
		// Erase clears damage records.
		lib.ForceEject(d)
		cart.Erase()
		if cart.CorruptCount() != 0 {
			t.Error("Erase kept corruption records")
		}
	})
}

func TestCorruptNextOpsWriteAndRead(t *testing.T) {
	run(t, func(c *simtime.Clock, lib *Library) {
		d := lib.Drive(0)
		d.Acquire()
		defer d.Release()
		cart, _ := lib.Cartridge("VOL0001")
		lib.Mount(d, cart)
		// Corrupted write: succeeds, lands a mangled on-media digest and
		// a damage record citing the cause.
		d.CorruptNextOps(1, 99)
		f, err := d.AppendSum(1, 1e6, 0xABCD)
		if err != nil {
			t.Fatal(err)
		}
		if f.Sum == 0xABCD {
			t.Error("corrupted write recorded the true digest")
		}
		if rec, ok := cart.CorruptionFor(f.Seq); !ok || rec.Cause != 99 {
			t.Errorf("write corruption not recorded: %+v ok=%v", rec, ok)
		}
		// Clean write, then corrupted read off intact media: media keeps
		// the true digest, delivery is wrong once, then clean again.
		g, _ := d.AppendSum(2, 1e6, 0x5555)
		d.CorruptNextOps(1, 100)
		got, sum, err := d.ReadSeqSum(g.Seq)
		if err != nil {
			t.Fatal(err)
		}
		if got.Sum != 0x5555 || sum == 0x5555 {
			t.Errorf("corrupted read: media %#x delivered %#x", got.Sum, sum)
		}
		if _, sum, _ = d.ReadSeqSum(g.Seq); sum != 0x5555 {
			t.Errorf("second read still corrupted: %#x", sum)
		}
		if d.stats.CorruptOps != 2 {
			t.Errorf("CorruptOps = %d, want 2", d.stats.CorruptOps)
		}
		if d.CorruptCause() != 100 {
			t.Errorf("CorruptCause = %d, want 100", d.CorruptCause())
		}
	})
}
