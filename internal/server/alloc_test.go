package server

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/block"
	"repro/internal/nfsproto"
	"repro/internal/sim"
)

// TestWriteBurstAllocAndCopyGuard is the server-side counterpart of the
// client decode alloc guard: a LADDIS-style burst of 8K WRITEs driven
// through the full stack — RPC dispatch, the gathering engine, the ufs
// buffer cache and the NVRAM board down to the platters — must move the
// payload with ZERO copies in steady state (the wire body is adopted by
// the buffer cache and travels to NVRAM and the platter store by
// reference), and the whole round trip must stay within a small allocs/op
// budget once every pool is warm.
func TestWriteBurstAllocAndCopyGuard(t *testing.T) {
	r := newRig(t, 11, rigOpts{gathering: true, presto: true, fddi: true})
	root := r.srv.RootFH()

	const burst = 8 // the largest LADDIS write burst
	var fh nfsproto.FH
	trigger := sim.NewQueue[int](r.sim, 0)
	r.sim.Spawn("app", func(p *sim.Proc) {
		cres, err := r.cli.Create(p, root, "burst.dat", 0644)
		if err != nil || cres.Status != nfsproto.OK {
			t.Errorf("create: %v %v", err, cres)
			return
		}
		fh = cres.File
		for {
			trigger.Get(p)
			for i := 0; i < burst; i++ {
				off := uint32(i) * nfsproto.MaxData
				buf := r.cli.PatternBuf(off, nfsproto.MaxData)
				if err := r.cli.WriteSyncBufRelease(p, fh, off, buf, nfsproto.MaxData); err != nil {
					t.Errorf("write %d: %v", i, err)
					return
				}
			}
		}
	})

	oneBurst := func() {
		trigger.Put(0)
		r.sim.Run(0) // runs the burst AND the full NVRAM drain to platters
	}
	// Warm-up: first pass allocates the file and every pool; a few more
	// passes settle the drain elevator and the dup cache.
	for i := 0; i < 16; i++ {
		oneBurst()
	}

	copies0 := block.Copies()
	allocs := testing.AllocsPerRun(50, oneBurst)
	copied := block.Copies() - copies0

	// Steady-state overwrites adopt the wire payload into the cache and
	// hand it by reference to NVRAM and the disk: no payload byte is
	// memmoved anywhere in the pipeline. Any regression — a revived
	// platter-store copy, a cluster assembly buffer, an un-adopted cache
	// landing — shows up here as 8K+ per write.
	if copied != 0 {
		t.Fatalf("write burst copied %d bytes/burst through the data path, want 0 "+
			"(%.1f bytes per 8K write)", copied, float64(copied)/(51*burst))
	}

	// The allocs budget covers what the round trip legitimately allocates
	// per WRITE: the client's head wire buffer + encoder, the server's
	// reply wire buffer, and the dup-cache bookkeeping. 8 writes/burst.
	perOp := allocs / burst
	if perOp > 10 {
		t.Fatalf("steady-state WRITE costs %.1f allocs/op (%.0f per burst); "+
			"the pooled write path has regressed", perOp, allocs)
	}
	t.Logf("write burst: %.1f allocs/op, %d payload bytes copied", perOp, copied)
}

// TestFreshFileWriteAllocGuard covers what the steady-state guard above
// cannot see: first writes of new files, the copy workload's shape, where
// every block lands on a fresh platter slot and the pool has nothing to
// recycle. Files are streamed through the client's write-behind, server
// dispatch, gathering, the ufs cache and NVRAM to the platters. A payload
// that is never read must never be allocated, filled or copied: the bytes
// allocated per 8K WRITE stay far below 8K.
//
// Unlike steady-state overwrites, a growing file rewrites its inode and
// indirect block on every gathered commit, and each rewrite of a block the
// platters (or NVRAM) share pays one copy-on-write copy in ufs own. Those
// metadata copies are legitimate, so the copy check allows at most one
// block per metadata write plus the directory entries the CREATEs add;
// one payload copy per WRITE would exceed it many times over.
func TestFreshFileWriteAllocGuard(t *testing.T) {
	r := newRig(t, 13, rigOpts{gathering: true, presto: true, biods: 4, fddi: true})
	root := r.srv.RootFH()

	const fileBlocks = 64
	trigger := sim.NewQueue[int](r.sim, 0)
	files := 0
	r.sim.Spawn("app", func(p *sim.Proc) {
		for {
			trigger.Get(p)
			name := fmt.Sprintf("copy-%d.dat", files)
			cres, err := r.cli.Create(p, root, name, 0644)
			if err != nil || cres.Status != nfsproto.OK {
				t.Errorf("create %s: %v %v", name, err, cres)
				return
			}
			if _, err := r.cli.WriteFile(p, cres.File, fileBlocks*nfsproto.MaxData); err != nil {
				t.Errorf("write %s: %v", name, err)
				return
			}
			files++
		}
	})
	oneFile := func() {
		trigger.Put(0)
		r.sim.Run(0) // the whole file, its commit and the NVRAM drain
	}
	for i := 0; i < 4; i++ {
		oneFile()
	}

	const measured = 16
	copies0, meta0 := block.Copies(), r.fs.MetaWrites
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < measured; i++ {
		oneFile()
	}
	runtime.ReadMemStats(&m1)
	if files != 4+measured {
		t.Fatalf("%d files written, want %d", files, 4+measured)
	}
	copied := block.Copies() - copies0
	metaCopies := int64(block.Size)*int64(r.fs.MetaWrites-meta0) + 512*measured
	if copied > metaCopies {
		t.Fatalf("fresh-file writes copied %d bytes, more than the %d metadata "+
			"copy-on-write and directory entries account for: payload is being copied",
			copied, metaCopies)
	}
	perWrite := float64(m1.TotalAlloc-m0.TotalAlloc) / (measured * fileBlocks)
	t.Logf("fresh-file write: %.0f bytes allocated per 8K WRITE; %d bytes copied (metadata bound %d)",
		perWrite, copied, metaCopies)
	if perWrite > 2048 {
		t.Fatalf("fresh-file 8K WRITE allocates %.0f bytes; the payload is being "+
			"allocated or filled on the write path", perWrite)
	}
}

// TestWriteBurstNoBufLeak sweeps a write burst and then checks the global
// buffer accounting: at quiesce, every outstanding buffer reference must
// be attributable to a long-lived store slot (buffer cache, NVRAM dirty
// map, platter store) — a reference held by a dead datagram, a released
// staging buffer or an unwound process has nowhere to hide in this
// equation.
func TestWriteBurstNoBufLeak(t *testing.T) {
	refs0 := block.TotalRefs()
	r := newRig(t, 12, rigOpts{gathering: true, presto: true, biods: 4, fddi: true})
	root := r.srv.RootFH()

	done := false
	r.sim.Spawn("app", func(p *sim.Proc) {
		cres, err := r.cli.Create(p, root, "leak.dat", 0644)
		if err != nil || cres.Status != nfsproto.OK {
			t.Errorf("create: %v %v", err, cres)
			return
		}
		if _, err := r.cli.WriteFile(p, cres.File, 1<<20); err != nil {
			t.Errorf("WriteFile: %v", err)
			return
		}
		done = true
	})
	r.sim.Run(0)
	if !done {
		t.Fatal("app did not finish")
	}

	expected := int64(r.fs.CachedBufs() + r.disk.StoredBufs() + r.presto.DirtyBufs())
	if got := block.TotalRefs() - refs0; got != expected {
		t.Fatalf("block accounting off after sweep: %d refs outstanding, %d retained by "+
			"cache/platter/NVRAM slots — %+d leaked", got, expected, got-expected)
	}
}
