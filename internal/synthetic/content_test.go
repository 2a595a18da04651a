package synthetic

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewUniformLen(t *testing.T) {
	c := NewUniform(42, 1000)
	if c.Len() != 1000 {
		t.Errorf("Len = %d, want 1000", c.Len())
	}
	if NewUniform(1, 0).Len() != 0 {
		t.Error("zero-length content should have Len 0")
	}
}

func TestReadAtDeterministic(t *testing.T) {
	c := NewUniform(7, 4096)
	a := make([]byte, 4096)
	b := make([]byte, 4096)
	if n := c.ReadAt(a, 0); n != 4096 {
		t.Fatalf("ReadAt = %d, want 4096", n)
	}
	c.ReadAt(b, 0)
	if !bytes.Equal(a, b) {
		t.Error("two reads of the same content differ")
	}
}

func TestReadAtUnalignedMatchesAligned(t *testing.T) {
	c := NewUniform(99, 1024)
	full := make([]byte, 1024)
	c.ReadAt(full, 0)
	for _, off := range []int64{1, 3, 7, 8, 13, 511, 1000} {
		part := make([]byte, 17)
		n := c.ReadAt(part, off)
		if !bytes.Equal(part[:n], full[off:off+int64(n)]) {
			t.Errorf("unaligned read at %d disagrees with full read", off)
		}
	}
}

func TestReadAtShortAtEOF(t *testing.T) {
	c := NewUniform(5, 10)
	p := make([]byte, 20)
	if n := c.ReadAt(p, 4); n != 6 {
		t.Errorf("ReadAt near EOF = %d, want 6", n)
	}
	if n := c.ReadAt(p, 10); n != 0 {
		t.Errorf("ReadAt at EOF = %d, want 0", n)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := NewUniform(1, 256)
	b := NewUniform(2, 256)
	pa := make([]byte, 256)
	pb := make([]byte, 256)
	a.ReadAt(pa, 0)
	b.ReadAt(pb, 0)
	if bytes.Equal(pa, pb) {
		t.Error("different seeds produced identical bytes")
	}
	if a.Equal(b) {
		t.Error("Equal says different seeds match")
	}
	if a.Digest() == b.Digest() {
		t.Error("digests of different seeds collide")
	}
}

func TestSliceMatchesBytes(t *testing.T) {
	c := NewUniform(11, 1000)
	s := c.Slice(100, 300)
	if s.Len() != 300 {
		t.Fatalf("slice Len = %d, want 300", s.Len())
	}
	want := make([]byte, 300)
	c.ReadAt(want, 100)
	got := make([]byte, 300)
	s.ReadAt(got, 0)
	if !bytes.Equal(got, want) {
		t.Error("slice bytes disagree with parent range")
	}
}

func TestConcatRoundTrip(t *testing.T) {
	c := NewUniform(13, 900)
	parts := []Content{c.Slice(0, 300), c.Slice(300, 300), c.Slice(600, 300)}
	joined := Concat(parts...)
	if !joined.Equal(c) {
		t.Errorf("concat of contiguous slices != original: %v vs %v", joined, c)
	}
}

func TestConcatDifferentStreams(t *testing.T) {
	a := NewUniform(1, 100)
	b := NewUniform(2, 100)
	j := Concat(a, b)
	if j.Len() != 200 {
		t.Fatalf("Len = %d, want 200", j.Len())
	}
	got := make([]byte, 200)
	j.ReadAt(got, 0)
	wa := make([]byte, 100)
	wb := make([]byte, 100)
	a.ReadAt(wa, 0)
	b.ReadAt(wb, 0)
	if !bytes.Equal(got[:100], wa) || !bytes.Equal(got[100:], wb) {
		t.Error("concat bytes disagree with parts")
	}
}

func TestOverwriteDetectedByEqual(t *testing.T) {
	orig := NewUniform(21, 1000)
	corrupted := orig.Overwrite(500, NewUniform(9999, 10))
	if corrupted.Equal(orig) {
		t.Error("overwrite not detected")
	}
	if corrupted.Len() != orig.Len() {
		t.Errorf("overwrite changed length: %d", corrupted.Len())
	}
	// Restore the overwritten region from the original and equality
	// must come back (extents re-merge).
	restored := corrupted.Overwrite(500, orig.Slice(500, 10))
	if !restored.Equal(orig) {
		t.Errorf("restore did not round-trip: %v vs %v", restored, orig)
	}
}

func TestTruncate(t *testing.T) {
	c := NewUniform(3, 100)
	tr := c.Truncate(40)
	if tr.Len() != 40 {
		t.Errorf("truncated Len = %d, want 40", tr.Len())
	}
	if !tr.Equal(c.Slice(0, 40)) {
		t.Error("truncate != slice prefix")
	}
}

func TestDigestStableUnderDecomposition(t *testing.T) {
	c := NewUniform(77, 10000)
	re := Concat(c.Slice(0, 1), c.Slice(1, 4999), c.Slice(5000, 5000))
	if re.Digest() != c.Digest() {
		t.Error("digest changed under slice/concat round trip")
	}
}

func TestByteAt(t *testing.T) {
	c := NewUniform(8, 64)
	full := make([]byte, 64)
	c.ReadAt(full, 0)
	for i := int64(0); i < 64; i += 7 {
		if c.byteAt(i) != full[i] {
			t.Errorf("byteAt(%d) mismatch", i)
		}
	}
}

// Property: for any split point, slicing and re-concatenating preserves
// equality and digest.
func TestQuickSliceConcatIdentity(t *testing.T) {
	f := func(seed uint64, rawLen uint16, rawCut uint16) bool {
		length := int64(rawLen)%4096 + 1
		cut := int64(rawCut) % (length + 1)
		c := NewUniform(seed, length)
		re := Concat(c.Slice(0, cut), c.Slice(cut, length-cut))
		return re.Equal(c) && re.Digest() == c.Digest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: ReadAt over arbitrary windows agrees with a full
// materialization of the content.
func TestQuickReadWindowsAgree(t *testing.T) {
	f := func(seed uint64, rawOff, rawN uint16) bool {
		const length = 2048
		c := NewUniform(seed, length)
		full := make([]byte, length)
		c.ReadAt(full, 0)
		off := int64(rawOff) % length
		n := int64(rawN)%256 + 1
		buf := make([]byte, n)
		got := c.ReadAt(buf, off)
		wantN := n
		if off+wantN > length {
			wantN = length - off
		}
		return int64(got) == wantN && bytes.Equal(buf[:got], full[off:off+int64(got)])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: overwrite with random foreign content always breaks
// equality, and overwriting back restores it.
func TestQuickOverwriteRestore(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		length := int64(r.Intn(4000) + 10)
		c := NewUniform(r.Uint64(), length)
		off := int64(r.Intn(int(length)))
		n := int64(r.Intn(int(length-off))) + 1
		bad := c.Overwrite(off, NewUniform(r.Uint64()|1<<63, n))
		if bad.Equal(c) {
			t.Fatalf("iteration %d: corruption not detected", i)
		}
		good := bad.Overwrite(off, c.Slice(off, n))
		if !good.Equal(c) {
			t.Fatalf("iteration %d: restore failed", i)
		}
	}
}

func TestSliceOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewUniform(1, 10).Slice(5, 10)
}

func BenchmarkDigestLargeFile(b *testing.B) {
	// A 40 TB file assembled from 4096 chunks.
	parts := make([]Content, 4096)
	for i := range parts {
		parts[i] = NewUniform(uint64(i), 10<<30)
	}
	c := Concat(parts...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Digest()
	}
}

func BenchmarkReadAt64K(b *testing.B) {
	c := NewUniform(1, 1<<30)
	p := make([]byte, 64<<10)
	b.SetBytes(int64(len(p)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ReadAt(p, int64(i)%(1<<20))
	}
}

func TestFirstDiff(t *testing.T) {
	a := NewUniform(1, 1000)
	if got := FirstDiff(a, a); got != -1 {
		t.Errorf("identical contents: FirstDiff = %d, want -1", got)
	}
	b := a.Overwrite(400, NewUniform(2, 100))
	if got := FirstDiff(a, b); got != 400 {
		t.Errorf("overwrite at 400: FirstDiff = %d, want 400", got)
	}
	if got := FirstDiff(b, a); got != 400 {
		t.Errorf("FirstDiff is not symmetric: got %d, want 400", got)
	}
	// A prefix diverges at the shorter length.
	if got := FirstDiff(a, a.Slice(0, 600)); got != 600 {
		t.Errorf("prefix: FirstDiff = %d, want 600", got)
	}
	// Same seed, shifted stream offset: differs from byte zero.
	sh := Concat(NewUniform(1, 1008).Slice(8, 1000))
	if got := FirstDiff(a, sh); got != 0 {
		t.Errorf("shifted stream: FirstDiff = %d, want 0", got)
	}
	// Concatenation boundaries must not produce false diffs.
	c := Concat(a.Slice(0, 300), a.Slice(300, 700))
	if got := FirstDiff(a, c); got != -1 {
		t.Errorf("re-concatenated content: FirstDiff = %d, want -1", got)
	}
}

func TestCorruptDigest(t *testing.T) {
	seen := map[uint64]bool{}
	for _, s := range []uint64{0, 1, 42, ^uint64(0), NewUniform(3, 100).Digest()} {
		m := CorruptDigest(s)
		if m == s {
			t.Errorf("CorruptDigest(%#x) returned its input", s)
		}
		if m != CorruptDigest(s) {
			t.Errorf("CorruptDigest(%#x) is not deterministic", s)
		}
		seen[m] = true
	}
	if len(seen) != 5 {
		t.Errorf("CorruptDigest collided across %d distinct inputs", 5-len(seen)+len(seen))
	}
}

// byteAt generates the single byte at offset off.
func (c Content) byteAt(off int64) byte {
	var b [1]byte
	if c.ReadAt(b[:], off) != 1 {
		panic("synthetic: byteAt out of bounds")
	}
	return b[0]
}
