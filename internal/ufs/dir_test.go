package ufs

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// listDir returns the directory's entries as name -> ino via Readdir.
func listDir(p *sim.Proc, fs *FS, dir vfs.Ino) (map[string]vfs.Ino, error) {
	got := map[string]vfs.Ino{}
	var cookie uint32
	for {
		ents, eof, err := fs.Readdir(p, dir, cookie, 4096)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			if _, dup := got[e.Name]; dup {
				return nil, fmt.Errorf("duplicate entry %q", e.Name)
			}
			got[e.Name] = e.Ino
			cookie = e.Cookie
		}
		if eof {
			return got, nil
		}
	}
}

// sameEntries reports the first difference between a listing and the
// model, or "" when they agree.
func sameEntries(got, want map[string]vfs.Ino) string {
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if got[n] != want[n] {
			return fmt.Sprintf("%q = ino %d, model has %d", n, got[n], want[n])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d entries, model has %d", len(got), len(want))
	}
	return ""
}

// dirModel is the expected contents of one directory under test, the
// names its in-flight mutation touches, and the lock its mutators hold.
type dirModel struct {
	ino     vfs.Ino
	entries map[string]vfs.Ino
	busy    map[string]bool
	lock    *sim.Resource
}

// TestDirConcurrentMutationsMatchModel interleaves inserts, removals,
// renames and lookups on two directories from several processes. Every
// mutation syncs to disk, so the processes yield mid-operation: readers
// run against the memo while stores are in flight, and stores to the two
// directories overlap. Mutators of one directory hold its lock (the
// serialization the NFS layer's vnode lock gives them); readers take
// none. At the end the memoized view, a forced reparse and a remount must
// all equal the model.
func TestDirConcurrentMutationsMatchModel(t *testing.T) {
	s, fs, d := sizedRig(t, 1, 2048)
	var dirs []*dirModel
	newDir := func(ino vfs.Ino) {
		dirs = append(dirs, &dirModel{ino: ino, entries: map[string]vfs.Ino{},
			busy: map[string]bool{}, lock: sim.NewResource(s, 1)})
	}
	newDir(fs.Root())
	run(s, func(p *sim.Proc) {
		fs.WriteSuper(p)
		sub, err := fs.Mkdir(p, fs.Root(), "sub", 0755)
		if err != nil {
			t.Fatalf("Mkdir sub: %v", err)
		}
		newDir(sub)
	})
	root := dirs[0]
	root.entries["sub"] = dirs[1].ino
	// Long names, so each directory spans several blocks.
	pick := func(rng *rand.Rand) string {
		return fmt.Sprintf("%s-%03d", "a-fairly-long-directory-entry-name", rng.Intn(300))
	}

	mutate := func(p *sim.Proc, rng *rand.Rand, dm *dirModel) {
		dm.lock.Acquire(p)
		defer dm.lock.Release()
		name, to := pick(rng), pick(rng)
		dm.busy[name], dm.busy[to] = true, true
		defer func() { delete(dm.busy, name); delete(dm.busy, to) }()
		cur, exists := dm.entries[name]
		isDir := false
		if exists {
			in, _ := fs.getInode(cur)
			isDir = in.ftype == vfs.TypeDir
		}
		switch op := rng.Intn(5); {
		case op == 0 && !exists:
			ino, err := fs.Mkdir(p, dm.ino, name, 0755)
			if err != nil {
				t.Errorf("Mkdir %s: %v", name, err)
				return
			}
			dm.entries[name] = ino
		case op <= 2 && !exists:
			ino, err := fs.Create(p, dm.ino, name, 0644)
			if err != nil {
				t.Errorf("Create %s: %v", name, err)
				return
			}
			dm.entries[name] = ino
		case op <= 2:
			if _, err := fs.Create(p, dm.ino, name, 0644); err != vfs.ErrExist {
				t.Errorf("Create of existing %s = %v, want ErrExist", name, err)
			}
		case op == 3 && exists:
			var err error
			if isDir {
				err = fs.Rmdir(p, dm.ino, name)
			} else {
				err = fs.Remove(p, dm.ino, name)
			}
			if err != nil {
				t.Errorf("remove %s: %v", name, err)
				return
			}
			delete(dm.entries, name)
		case op == 4 && exists && name != to:
			if old, taken := dm.entries[to]; taken {
				if in, _ := fs.getInode(old); in.ftype == vfs.TypeDir || isDir {
					return // Rename replaces regular files only
				}
			}
			if err := fs.Rename(p, dm.ino, name, dm.ino, to); err != nil {
				t.Errorf("Rename %s -> %s: %v", name, to, err)
				return
			}
			dm.entries[to] = cur
			delete(dm.entries, name)
		}
	}

	read := func(p *sim.Proc, rng *rand.Rand, dm *dirModel) {
		if rng.Intn(2) == 0 {
			name := pick(rng)
			ino, err := fs.Lookup(p, dm.ino, name)
			if dm.busy[name] {
				return
			}
			if want, ok := dm.entries[name]; ok && (err != nil || ino != want) {
				t.Errorf("Lookup %s = %d, %v; model has %d", name, ino, err, want)
			} else if !ok && err != vfs.ErrNoEnt {
				t.Errorf("Lookup %s = %d, %v; model has no entry", name, ino, err)
			}
			return
		}
		got, err := listDir(p, fs, dm.ino)
		if err != nil {
			t.Errorf("Readdir: %v", err)
			return
		}
		for name, want := range dm.entries {
			if !dm.busy[name] && got[name] != want {
				t.Errorf("Readdir %s = %d; model has %d", name, got[name], want)
			}
		}
		for name := range got {
			if _, ok := dm.entries[name]; !ok && !dm.busy[name] {
				t.Errorf("Readdir lists %s; model has no entry", name)
			}
		}
	}

	for id := 0; id < 6; id++ {
		rng := rand.New(rand.NewSource(int64(100 + id)))
		s.Spawn(fmt.Sprintf("worker-%d", id), func(p *sim.Proc) {
			for i := 0; i < 500; i++ {
				dm := dirs[rng.Intn(len(dirs))]
				if rng.Intn(3) == 0 {
					read(p, rng, dm)
				} else {
					mutate(p, rng, dm)
				}
				p.Sleep(sim.Duration(rng.Intn(2000)))
			}
		})
	}
	s.Run(0)

	check := func(what string, got map[string]vfs.Ino, err error, dm *dirModel) {
		if err != nil {
			t.Errorf("%s Readdir of %d: %v", what, dm.ino, err)
		} else if diff := sameEntries(got, dm.entries); diff != "" {
			t.Errorf("%s of dir %d: %s", what, dm.ino, diff)
		}
	}
	run(s, func(p *sim.Proc) {
		for _, dm := range dirs {
			if len(dm.entries) < 100 {
				t.Errorf("dir %d ended with %d entries; the checks need a multi-block directory", dm.ino, len(dm.entries))
			}
			got, err := listDir(p, fs, dm.ino)
			check("memoized view", got, err, dm)
			in, _ := fs.getInode(dm.ino)
			in.dents, in.dentsOK = nil, false
			got, err = listDir(p, fs, dm.ino)
			check("forced reparse", got, err, dm)
		}
	})

	fs.DropCaches()
	s2 := sim.New(2)
	run(s2, func(p *sim.Proc) {
		m, err := Mount(s2, p, d, nil)
		if err != nil {
			t.Errorf("Mount: %v", err)
			return
		}
		for _, dm := range dirs {
			got, err := listDir(p, m, dm.ino)
			check("after remount", got, err, dm)
		}
	})
}

// fillDir creates n entries in the root directory.
func fillDir(tb testing.TB, s *sim.Sim, fs *FS, from, n int) {
	tb.Helper()
	run(s, func(p *sim.Proc) {
		for i := from; i < from+n; i++ {
			if _, err := fs.Mkdir(p, fs.Root(), fmt.Sprintf("entry-%05d", i), 0755); err != nil {
				tb.Errorf("Mkdir %d: %v", i, err)
				return
			}
		}
	})
}

// BenchmarkMkdirFlat inserts 5,000 entries into one directory.
func BenchmarkMkdirFlat(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, fs, _ := sizedRig(b, 1, 5200)
		b.StartTimer()
		fillDir(b, s, fs, 0, 5000)
	}
}

// TestDirInsertAllocationFlat: the host bytes allocated per insert must
// not grow with the directory. Copying the entry slice or allocating a
// fresh encode buffer on every insert makes them grow linearly.
func TestDirInsertAllocationFlat(t *testing.T) {
	perInsert := func(size int) float64 {
		s, fs, _ := sizedRig(t, 1, size+600)
		fillDir(t, s, fs, 0, size)
		const batch = 500
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fillDir(t, s, fs, size, batch)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / batch
	}
	small, large := perInsert(1000), perInsert(4000)
	t.Logf("bytes per insert: %.0f at 1,000 entries, %.0f at 4,000", small, large)
	if large > 1.5*small {
		t.Fatalf("bytes per insert grew from %.0f at 1,000 entries to %.0f at 4,000", small, large)
	}
}

// TestStoreDirScratchNotShared: a directory store whose cache fill yields
// mid-write must not have its encoded bytes overwritten by another
// directory's store that runs in the gap (the encode scratch is taken out
// of its slot for the whole write).
func TestStoreDirScratchNotShared(t *testing.T) {
	s, fs, _ := sizedRig(t, 1, 1024)
	var a, b vfs.Ino
	run(s, func(p *sim.Proc) {
		a, _ = fs.Mkdir(p, fs.Root(), "a", 0755)
		b, _ = fs.Mkdir(p, fs.Root(), "b", 0755)
		for i := 0; i < 20; i++ {
			fs.Create(p, a, fmt.Sprintf("a-%02d", i), 0644)
			fs.Create(p, b, fmt.Sprintf("b-%02d", i), 0644)
		}
	})
	// Drop a's (clean) directory block from the cache but keep its memo,
	// so the next store into a must read the block back mid-write.
	ain, _ := fs.getInode(a)
	fs.evict(ain.direct[0])
	s.Spawn("insert-a", func(p *sim.Proc) {
		if _, err := fs.Create(p, a, "a-new", 0644); err != nil {
			t.Errorf("Create a-new: %v", err)
		}
	})
	s.Spawn("insert-b", func(p *sim.Proc) {
		if _, err := fs.Create(p, b, "b-new", 0644); err != nil {
			t.Errorf("Create b-new: %v", err)
		}
	})
	s.Run(0)
	run(s, func(p *sim.Proc) {
		for dir, prefix := range map[vfs.Ino]string{a: "a-", b: "b-"} {
			in, _ := fs.getInode(dir)
			in.dents, in.dentsOK = nil, false
			got, err := listDir(p, fs, dir)
			if err != nil {
				t.Errorf("reparse of %s: %v", prefix, err)
				continue
			}
			if _, ok := got[prefix+"new"]; !ok || len(got) != 21 {
				t.Errorf("directory %s reparsed to %d entries, want 21 incl. %snew", prefix, len(got), prefix)
			}
			for name := range got {
				if !strings.HasPrefix(name, prefix) {
					t.Errorf("directory %s holds %q", prefix, name)
				}
			}
		}
	})
}
