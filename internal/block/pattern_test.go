package block

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// refPattern is FillPattern's reference form: one byte at a time, no
// period doubling.
func refPattern(buf []byte, off uint32) {
	for i := range buf {
		x := off + uint32(i)
		buf[i] = byte(x*2654435761 + x>>13)
	}
}

func TestFillPatternFastPathIdentical(t *testing.T) {
	for _, tc := range []struct {
		off uint32
		n   int
	}{{0, 8192}, {8192, 8192}, {81920, 8192}, {0, 100}, {0, 300}, {16384, 5000}, {24576, 8192},
		{7, 512}, {8192, 9000}, {8191, 1}, {8000, 192}, {8000, 193}, {4097, 4095}, {1<<32 - 8192, 8192}} {
		a := make([]byte, tc.n)
		b := make([]byte, tc.n)
		FillPattern(a, tc.off)
		refPattern(b, tc.off)
		if i := firstDiff(a, b); i >= 0 {
			t.Fatalf("off=%d n=%d mismatch at %d: %d != %d", tc.off, tc.n, i, a[i], b[i])
		}
	}
}

func TestFillPatternDeterministicAndOffsetSensitive(t *testing.T) {
	a := make([]byte, 256)
	b := make([]byte, 256)
	FillPattern(a, 8192)
	FillPattern(b, 8192)
	if !bytes.Equal(a, b) {
		t.Fatal("pattern not deterministic")
	}
	FillPattern(b, 16384)
	if bytes.Equal(a, b) {
		t.Fatal("pattern not offset sensitive")
	}
}

func TestQuickFillPatternConsistency(t *testing.T) {
	// The pattern at offset o computed in one buffer must equal the same
	// bytes computed in a shifted buffer: crash audits depend on it.
	f := func(off uint32, span uint8) bool {
		off %= 1 << 20
		n := int(span%64) + 1
		whole := make([]byte, 128)
		FillPattern(whole, off)
		part := make([]byte, n)
		FillPattern(part, off)
		return bytes.Equal(whole[:n], part)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestLazyEqualsEager is the property test for lazy pattern buffers over
// random aligned offsets: copy-out of any sub-range (odd lengths
// included) and in-place materialization both yield exactly the
// generator's bytes; a mutation after a Ref goes through a private copy
// and leaves the shared buffer's bytes alone; and a released lazy buffer
// recycled by Get comes back with a full array and a new generation.
func TestLazyEqualsEager(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := NewAccounting()
	p := a.NewPool()
	want := make([]byte, Size)
	for iter := 0; iter < 200; iter++ {
		off := uint32(rng.Int63n(1<<32/Size)) * Size
		refPattern(want, off)

		b := p.GetPattern(off)
		if !b.Lazy() {
			t.Fatal("GetPattern returned an eager buffer")
		}
		for k := 0; k < 8; k++ {
			from := rng.Intn(Size)
			n := rng.Intn(Size-from) + 1
			if k == 0 {
				from, n = 0, Size
			}
			// A destination longer than the rest of the block gets the
			// rest only, like copy.
			dst := make([]byte, n+rng.Intn(3))
			m := min(len(dst), Size-from)
			if got := b.CopyOut(dst, from); got != m {
				t.Fatalf("off=%d CopyOut(%d bytes, from %d) = %d, want %d", off, len(dst), from, got, m)
			}
			if i := firstDiff(dst[:m], want[from:from+m]); i >= 0 {
				t.Fatalf("off=%d copy-out [%d,+%d) differs at %d", off, from, m, from+i)
			}
		}
		if !b.Lazy() {
			t.Fatal("CopyOut materialized the buffer")
		}

		// Copy-on-write after a Ref: the sharer's bytes never change.
		shared := b.Ref()
		if b.Unique() {
			t.Fatal("referenced buffer reported unique")
		}
		priv := p.Get()
		if a.CountCopy(shared.CopyOut(priv.Data(), 0)) != Size {
			t.Fatal("short private copy")
		}
		b.Release()
		priv.Data()[rng.Intn(Size)] ^= 0xFF
		got := make([]byte, Size)
		shared.CopyOut(got, 0)
		if !bytes.Equal(got, want) {
			t.Fatalf("off=%d mutating the private copy changed the shared buffer", off)
		}
		priv.Release()

		// Materialization equals the eager fill.
		eager := p.Get()
		FillPattern(eager.Data(), off)
		if !bytes.Equal(shared.Data(), eager.Data()) || shared.Lazy() {
			t.Fatalf("off=%d Data() on a lazy buffer differs from the eager fill", off)
		}
		eager.Release()
		shared.Release()
	}
	if a.Live() != 0 || a.TotalRefs() != 0 {
		t.Fatalf("live=%d refs=%d after the property run", a.Live(), a.TotalRefs())
	}
}

// TestLazyRecycledByGet: a released lazy buffer that Get hands out again
// carries a full Size-byte array, and handles to its lazy occupancy are
// stale.
func TestLazyRecycledByGet(t *testing.T) {
	p := NewAccounting().NewPool()
	b := p.GetPattern(3 * Size)
	h := b.Handle()
	b.Release()
	g := p.Get()
	if g != b {
		t.Fatal("pool did not recycle the lazy record")
	}
	if g.Lazy() || len(g.Data()) != Size {
		t.Fatalf("recycled buffer: lazy=%v len=%d, want an eager %d-byte slice", g.Lazy(), len(g.Data()), Size)
	}
	if h.Valid() || g.Handle() == h {
		t.Fatal("recycling a lazy buffer did not bump its generation")
	}
	g.Release()
}

// TestPatternArraysRecycle: an eager record reused for a lazy buffer parks
// its array, and the next eager Get takes it back — the two forms share a
// warmed pool without allocating.
func TestPatternArraysRecycle(t *testing.T) {
	p := NewAccounting().NewPool()
	p.Get().Release()
	p.GetPattern(0).Release()
	n := testing.AllocsPerRun(100, func() {
		e := p.Get()
		l := p.GetPattern(Size)
		e.Release()
		l.Release()
	})
	if n > 0 {
		t.Fatalf("mixed lazy/eager cycle allocated %.1f objects per run, want 0", n)
	}
}

// TestOverwriteSkipsGeneration: Overwrite hands a lazy buffer an array
// without generating the pattern, and the caller's bytes are what reads
// see afterwards.
func TestOverwriteSkipsGeneration(t *testing.T) {
	p := NewAccounting().NewPool()
	b := p.GetPattern(5 * Size)
	d := b.Overwrite()
	if len(d) != Size || b.Lazy() {
		t.Fatalf("Overwrite: len=%d lazy=%v", len(d), b.Lazy())
	}
	clear(d)
	d[10] = 0xAB
	got := make([]byte, 16)
	b.CopyOut(got, 0)
	if got[10] != 0xAB || got[0] != 0 {
		t.Fatalf("CopyOut after Overwrite = %v", got)
	}
	b.Release()
}

// TestGetPatternUnalignedPanics: only whole aligned blocks have a lazy
// form; callers fill any other shape eagerly.
func TestGetPatternUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned GetPattern did not panic")
		}
	}()
	NewAccounting().NewPool().GetPattern(100)
}
