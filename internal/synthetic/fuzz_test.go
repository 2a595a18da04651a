package synthetic

import (
	"math/rand"
	"testing"
)

// cell is one byte of the oracle: its value, as ReadAt produced it when
// the byte was created, and the stream position it was drawn from. A
// content's oracle is a []cell, and every operation on contents is the
// plain slice operation on cells.
type cell struct {
	b    byte
	seed uint64
	off  int64
}

func uniformCells(seed uint64, n int64) []cell {
	raw := make([]byte, n)
	NewUniform(seed, n).ReadAt(raw, 0)
	out := make([]cell, n)
	for i := range out {
		out[i] = cell{raw[i], seed, int64(i)}
	}
	return out
}

// firstDiff is FirstDiff on oracles: where the stream mappings part
// (not where the bytes do: two stream positions can hold the same byte,
// and Equal and FirstDiff are defined on the mapping).
func firstDiff(a, b []cell) int64 {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].seed != b[i].seed || a[i].off != b[i].off {
			return int64(i)
		}
	}
	if len(a) != len(b) {
		return int64(min(len(a), len(b)))
	}
	return -1
}

// checkContent holds c to its oracle: length, every byte, and an extent
// list that is exactly the oracle's runs — ordered, gap-free, merged
// wherever two neighbours continue one stream.
func checkContent(t testing.TB, desc string, c Content, want []cell) {
	if c.Len() != int64(len(want)) {
		t.Fatalf("%s: Len = %d, oracle has %d bytes", desc, c.Len(), len(want))
	}
	got := make([]byte, len(want)+3)
	if n := c.ReadAt(got, 0); n != len(want) {
		t.Fatalf("%s: ReadAt produced %d bytes of %d", desc, n, len(want))
	}
	var runs []extent
	for i, w := range want {
		if got[i] != w.b {
			t.Fatalf("%s: byte %d = %#x, oracle has %#x", desc, i, got[i], w.b)
		}
		if n := len(runs); n > 0 && runs[n-1].Seed == w.seed && runs[n-1].SeedOff+runs[n-1].Len == w.off {
			runs[n-1].Len++
		} else {
			runs = append(runs, extent{Off: int64(i), Len: 1, Seed: w.seed, SeedOff: w.off})
		}
	}
	if len(runs) != len(c.extents) {
		t.Fatalf("%s: %d extents %v, oracle has %d runs %v", desc, len(c.extents), c, len(runs), runs)
	}
	for i := range runs {
		if runs[i] != c.extents[i] {
			t.Fatalf("%s: extent %d = %+v, oracle run is %+v", desc, i, c.extents[i], runs[i])
		}
	}
}

const (
	fuzzRegs   = 4
	fuzzMaxLen = 600 // a register past this is not grown further
)

// runContentOps decodes data as a program over fuzzRegs content
// registers — an opcode byte, then operand bytes, zeros past the end —
// and runs it on Contents and on their oracles side by side.
func runContentOps(t testing.TB, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var regs [fuzzRegs]Content
	var want [fuzzRegs][]cell
	within := func(n int) int64 { return int64(next() % n) } // a point in [0, n)
	for step := 0; len(data) > 0; step++ {
		op, dst, src := next()%5, next()%fuzzRegs, next()%fuzzRegs
		c, w := regs[src], want[src]
		desc := ""
		switch op {
		case 0: // three seeds only: pieces of one stream meet again and must merge
			seed, n := uint64(next()%3+1), int64(next()%48)
			desc = "NewUniform"
			regs[dst], want[dst] = NewUniform(seed, n), uniformCells(seed, n)
		case 1:
			off := within(len(w) + 1)
			n := within(len(w) - int(off) + 1)
			desc = "Slice"
			regs[dst], want[dst] = c.Slice(off, n), append([]cell(nil), w[off:off+n]...)
		case 2:
			other := next() % fuzzRegs
			if len(w)+len(want[other]) > fuzzMaxLen {
				continue
			}
			desc = "Concat"
			regs[dst] = Concat(c, regs[other])
			want[dst] = append(append([]cell(nil), w...), want[other]...)
		case 3:
			other := next() % fuzzRegs
			repl, rw := regs[other], want[other]
			if len(rw) > len(w) {
				repl, rw = repl.Truncate(int64(len(w))), rw[:len(w)]
			}
			off := within(len(w) - len(rw) + 1)
			desc = "Overwrite"
			out := append([]cell(nil), w...)
			copy(out[off:], rw)
			regs[dst], want[dst] = c.Overwrite(off, repl), out
		case 4:
			n := within(len(w) + 1)
			desc = "Truncate"
			regs[dst], want[dst] = c.Truncate(n), append([]cell(nil), w[:n]...)
		}
		checkContent(t, desc, regs[dst], want[dst])
		// dst against every register, itself included.
		for i := range regs {
			diff := firstDiff(want[dst], want[i])
			if got := FirstDiff(regs[dst], regs[i]); got != diff {
				t.Fatalf("step %d %s: FirstDiff(r%d, r%d) = %d, oracle says %d", step, desc, dst, i, got, diff)
			}
			if got := regs[dst].Equal(regs[i]); got != (diff < 0) {
				t.Fatalf("step %d %s: r%d.Equal(r%d) = %v, oracle's first difference is at %d", step, desc, dst, i, got, diff)
			}
			if diff < 0 && regs[dst].Digest() != regs[i].Digest() {
				t.Fatalf("step %d %s: r%d and r%d are equal with different digests", step, desc, dst, i)
			}
		}
	}
}

// split-and-rejoin, overwrite-and-restore, corrupt: the shapes the copy
// and scrub paths make.
var contentSeeds = [][]byte{
	{0, 0, 0, 0, 40, 1, 1, 0, 0, 10, 1, 2, 0, 10, 30, 2, 3, 1, 2, 3, 3, 3, 3},
	{0, 0, 0, 1, 47, 0, 1, 0, 2, 20, 3, 2, 0, 1, 9, 1, 3, 2, 9, 20, 3, 2, 2, 3, 9},
	{0, 0, 0, 2, 33, 5, 1, 0, 14, 9, 5, 2, 1, 0, 40, 4, 3, 2, 12, 2, 0, 3, 0, 1},
}

func TestContentModel(t *testing.T) {
	for _, s := range contentSeeds {
		runContentOps(t, s)
	}
	for seed := int64(1); seed <= 200; seed++ {
		data := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(data)
		runContentOps(t, data)
	}
}

func FuzzContent(f *testing.F) {
	for _, s := range contentSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runContentOps(t, data) })
}
