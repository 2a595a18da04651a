// Package synthetic represents file contents symbolically so that the
// archive simulator can move, compare, and corrupt terabyte-scale files
// without materializing their bytes.
//
// A Content is a sequence of extents, each referring to a deterministic
// pseudo-random byte stream identified by a 64-bit seed and an offset
// within that stream. Copying propagates extents; comparison normalizes
// and compares extent lists; and any byte of any extent can be generated
// on demand for spot checks, so the representation behaves exactly like
// real data at five orders of magnitude less cost. Two distinct seed
// streams are treated as never byte-equal, which holds with probability
// 1-2^-64 per block for the splitmix64 generator used here.
package synthetic

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// extent is a run of bytes drawn from one seed stream.
type extent struct {
	Off     int64  // offset within the file
	Len     int64  // length in bytes
	Seed    uint64 // identifies the generator stream
	SeedOff int64  // offset within the seed stream
}

// Content is an immutable description of file bytes as ordered,
// non-overlapping, gap-free extents. The zero value is empty content.
type Content struct {
	extents []extent
}

// NewUniform returns content of the given length drawn from the seed
// stream starting at stream offset zero.
func NewUniform(seed uint64, length int64) Content {
	if length < 0 {
		panic("synthetic: negative length")
	}
	if length == 0 {
		return Content{}
	}
	return Content{extents: []extent{{Off: 0, Len: length, Seed: seed, SeedOff: 0}}}
}

// Len reports the total content length in bytes: where the last extent
// ends, since extents are gap-free from offset zero.
func (c Content) Len() int64 {
	if len(c.extents) == 0 {
		return 0
	}
	last := c.extents[len(c.extents)-1]
	return last.Off + last.Len
}

// appendRange appends bytes [off, end) of c to the extent list out,
// re-based to follow what out already holds, and merges an extent into
// its predecessor when it continues the same seed stream. Every Content
// is built by it from pieces in offset order, which is what keeps extent
// lists ordered, gap-free and maximally merged with no sort.
func appendRange(out []extent, c Content, off, end int64) []extent {
	at := Content{extents: out}.Len()
	for _, e := range c.extents {
		start, stop := max(off, e.Off), min(end, e.Off+e.Len)
		if start >= stop {
			continue
		}
		seedOff := e.SeedOff + (start - e.Off)
		if n := len(out); n > 0 && out[n-1].Seed == e.Seed && out[n-1].SeedOff+out[n-1].Len == seedOff {
			out[n-1].Len += stop - start
		} else {
			out = append(out, extent{Off: at, Len: stop - start, Seed: e.Seed, SeedOff: seedOff})
		}
		at += stop - start
	}
	return out
}

// spanned counts the extents of c that overlap [off, end): the capacity
// a copy of that range needs.
func (c Content) spanned(off, end int64) int {
	n := 0
	for _, e := range c.extents {
		if e.Off < end && e.Off+e.Len > off {
			n++
		}
	}
	return n
}

// Slice returns the sub-content [off, off+length). It panics if the
// range is out of bounds.
func (c Content) Slice(off, length int64) Content {
	if total := c.Len(); off < 0 || length < 0 || off+length > total {
		panic(fmt.Sprintf("synthetic: slice [%d,%d) out of bounds of %d", off, off+length, total))
	}
	if length == 0 {
		return Content{}
	}
	out := make([]extent, 0, c.spanned(off, off+length))
	return Content{extents: appendRange(out, c, off, off+length)}
}

// Concat returns the concatenation of c followed by others, in order.
func Concat(parts ...Content) Content {
	n := 0
	for _, p := range parts {
		n += len(p.extents)
	}
	if n == 0 {
		return Content{}
	}
	out := make([]extent, 0, n)
	for _, p := range parts {
		out = appendRange(out, p, 0, p.Len())
	}
	return Content{extents: out}
}

// Overwrite returns c with the range [off, off+repl.Len()) replaced by
// repl. The replaced range must lie within c.
func (c Content) Overwrite(off int64, repl Content) Content {
	total, rl := c.Len(), repl.Len()
	if off < 0 || off+rl > total {
		panic("synthetic: overwrite out of bounds")
	}
	if total == 0 {
		return Content{}
	}
	out := make([]extent, 0, c.spanned(0, off)+len(repl.extents)+c.spanned(off+rl, total))
	out = appendRange(out, c, 0, off)
	out = appendRange(out, repl, 0, rl)
	out = appendRange(out, c, off+rl, total)
	return Content{extents: out}
}

// Truncate returns c cut to the given length (which must not exceed
// the current length).
func (c Content) Truncate(length int64) Content {
	return c.Slice(0, length)
}

// Equal reports whether two contents are byte-identical, comparing
// normalized extent lists. Distinct seed streams are treated as
// never-equal (see the package comment).
func (c Content) Equal(d Content) bool {
	a, b := c.extents, d.extents
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Digest returns a 64-bit fingerprint of the content: equal contents
// have equal digests, and distinct contents collide only with hash
// probability.
func (c Content) Digest() uint64 {
	h := fnv.New64a()
	var buf [8 * 4]byte
	for _, e := range c.extents {
		putU64(buf[0:], uint64(e.Off))
		putU64(buf[8:], uint64(e.Len))
		putU64(buf[16:], e.Seed)
		putU64(buf[24:], uint64(e.SeedOff))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// FirstDiff returns the offset of the first byte at which a and b
// differ, or -1 if they are byte-identical. As with Equal, bytes drawn
// from different points of the seed-stream space are treated as always
// differing, so the answer is the first offset where the stream mapping
// of the two contents diverges (or the shorter length if one is a
// prefix of the other).
func FirstDiff(a, b Content) int64 {
	ae, be := a.extents, b.extents
	var pos int64
	i, j := 0, 0
	for i < len(ae) && j < len(be) {
		ea, eb := ae[i], be[j]
		if ea.Seed != eb.Seed || ea.SeedOff+(pos-ea.Off) != eb.SeedOff+(pos-eb.Off) {
			return pos
		}
		endA, endB := ea.Off+ea.Len, eb.Off+eb.Len
		if endA <= endB {
			i++
		}
		if endB <= endA {
			j++
		}
		if endA < endB {
			pos = endA
		} else {
			pos = endB
		}
	}
	if a.Len() != b.Len() {
		if a.Len() < b.Len() {
			return a.Len()
		}
		return b.Len()
	}
	return -1
}

// corruptSalt perturbs digests so that corrupted data is
// deterministically distinct from its source.
const corruptSalt = 0xBADB10CC0220F7ED

// CorruptDigest returns the digest a reader observes when the data
// behind sum was silently corrupted: a deterministic mangling that is
// never equal to the input (the corrupt stream is a different seed
// stream, so its digest differs from the original's with hash
// probability). Subsystems that track data only as a checksum — tape
// blocks, fabric flows — use this to model corruption without
// materializing content.
func CorruptDigest(sum uint64) uint64 {
	m := splitmix64(sum ^ corruptSalt)
	if m == sum {
		m++
	}
	return m
}

// ReadAt generates the actual bytes of the content at off into p,
// returning the number of bytes produced (short at EOF).
func (c Content) ReadAt(p []byte, off int64) int {
	total := c.Len()
	if off >= total {
		return 0
	}
	n := int64(len(p))
	if off+n > total {
		n = total - off
	}
	// Locate extents overlapping [off, off+n).
	idx := sort.Search(len(c.extents), func(i int) bool {
		return c.extents[i].Off+c.extents[i].Len > off
	})
	written := int64(0)
	for i := idx; i < len(c.extents) && written < n; i++ {
		e := c.extents[i]
		start := off + written
		rel := start - e.Off
		chunk := e.Len - rel
		if chunk > n-written {
			chunk = n - written
		}
		generate(p[written:written+chunk], e.Seed, e.SeedOff+rel)
		written += chunk
	}
	return int(written)
}

// generate fills p with stream bytes starting at streamOff of seed.
func generate(p []byte, seed uint64, streamOff int64) {
	i := int64(0)
	for i < int64(len(p)) {
		abs := streamOff + i
		block := abs >> 3
		word := splitmix64(seed + uint64(block)*0x9E3779B97F4A7C15)
		rem := abs & 7
		for rem < 8 && i < int64(len(p)) {
			p[i] = byte(word >> (8 * uint(rem)))
			i++
			rem++
		}
	}
}

// splitmix64 is the SplitMix64 finalizer: a high-quality, fast mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// String renders a compact description for debugging.
func (c Content) String() string {
	if len(c.extents) == 0 {
		return "synthetic.Content{}"
	}
	s := "synthetic.Content{"
	for i, e := range c.extents {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("[%d+%d s=%x@%d]", e.Off, e.Len, e.Seed, e.SeedOff)
	}
	return s + "}"
}
