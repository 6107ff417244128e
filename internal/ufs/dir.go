package ufs

import (
	"encoding/binary"
	"fmt"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// Directory contents live in ordinary data blocks with a compact record
// format: entry count, then for each entry an inode number (8 bytes), a
// name length (2 bytes) and the name. Directory mutations rewrite the
// affected blocks synchronously, as FFS does, so namespace operations are
// durable when they return.

type dirent struct {
	ino  vfs.Ino
	name string
}

// Dirent memo ownership. loadDir memoizes the parse on the inode, and the
// memo's [0:len) is immutable: readers (Lookup, Readdir, unlink's scan)
// may hold such a view across yields. Two kinds of mutation follow:
//
//   - An insert (makeNode) appends to the slice loadDir returned, in
//     place when capacity allows. With no yield between loadDir and the
//     append, that slice is either the current memo or a private parse,
//     and the new entry lands past the end of every view anyone holds;
//     storeDir then clears the memo, so a stale slice is never appended
//     to twice. Capacity grows geometrically, so a run of inserts into one
//     directory is amortized O(1) in host allocation.
//   - A removal or rename edits entries inside [0:len), so it works on a
//     copy (cloneDir) and hands the copy to storeDir.
//
// storeDir re-validates the memo with the slice it was given when nothing
// could interleave. The memo never changes simulated timing — directory
// blocks stay in the buffer cache once read, so a reparse would cost no
// virtual time either.

// loadDir returns the directory's parsed contents (see the ownership rule
// above: callers must not write inside [0:len) of the result).
func (fs *FS) loadDir(p *sim.Proc, in *inode) ([]dirent, error) {
	if in.ftype != vfs.TypeDir {
		return nil, vfs.ErrNotDir
	}
	if in.dentsOK {
		return in.dents, nil
	}
	ents, err := fs.parseDir(p, in)
	if err != nil {
		return nil, err
	}
	// Memoize only quiescent parses: while a storeDir is mid-flush on this
	// inode (it yields for disk I/O), a parse may observe a transient state
	// that no later invalidation would clear.
	if in.storing == 0 {
		in.dents, in.dentsOK = ents, true
	}
	return ents, nil
}

// cloneDir copies a loadDir result so a removal or rename can edit
// entries without corrupting the memoized slice behind readers.
func cloneDir(ents []dirent) []dirent {
	out := make([]dirent, len(ents))
	copy(out, ents)
	return out
}

// parseDir reads and parses the directory's contents from the cache/device.
func (fs *FS) parseDir(p *sim.Proc, in *inode) ([]dirent, error) {
	raw := fs.takeDirBuf(int(in.size))
	defer fs.putDirBuf(raw)
	if in.size > 0 {
		if _, err := fs.readRaw(p, in, 0, raw); err != nil {
			return nil, err
		}
	}
	if len(raw) < 4 {
		return nil, nil
	}
	n := binary.BigEndian.Uint32(raw)
	ents := make([]dirent, 0, n)
	off := 4
	for i := uint32(0); i < n; i++ {
		if off+10 > len(raw) {
			return nil, fmt.Errorf("ufs: corrupt directory %d", in.num)
		}
		ino := vfs.Ino(binary.BigEndian.Uint64(raw[off:]))
		nl := int(binary.BigEndian.Uint16(raw[off+8:]))
		off += 10
		if off+nl > len(raw) {
			return nil, fmt.Errorf("ufs: corrupt directory %d", in.num)
		}
		ents = append(ents, dirent{ino: ino, name: string(raw[off : off+nl])})
		off += nl
	}
	return ents, nil
}

// takeDirBuf takes the FS's directory encode/parse scratch out of its slot,
// sized to n bytes. The caller owns it until putDirBuf: the slot is empty
// meanwhile, so a concurrent user (the holder may yield in readRaw or
// writeRaw) gets a buffer of its own instead of sharing this one.
func (fs *FS) takeDirBuf(n int) []byte {
	b := fs.dirBuf
	fs.dirBuf = nil
	if cap(b) < n {
		b = make([]byte, n, n+n/2)
	}
	return b[:n]
}

// putDirBuf returns a scratch buffer to the slot, keeping the larger one.
func (fs *FS) putDirBuf(b []byte) {
	if cap(b) > cap(fs.dirBuf) {
		fs.dirBuf = b
	}
}

// storeDir serializes and writes the directory synchronously (data and
// metadata both durable on return). It invalidates the memoized parse; the
// next loadDir rebuilds it from the buffer cache at zero simulated cost.
// Repopulating the memo unconditionally would be wrong: storeDir yields
// during the flush, concurrent mutators of the same directory can
// interleave, and whichever store finished last would install its own —
// possibly stale — snapshot.
func (fs *FS) storeDir(p *sim.Proc, in *inode, ents []dirent) error {
	in.dents, in.dentsOK = nil, false
	in.storing++
	defer func() { in.storing-- }()
	size := 4
	for _, e := range ents {
		size += 10 + len(e.name)
	}
	raw := fs.takeDirBuf(size)
	binary.BigEndian.PutUint32(raw, uint32(len(ents)))
	off := 4
	for _, e := range ents {
		binary.BigEndian.PutUint64(raw[off:], uint64(e.ino))
		binary.BigEndian.PutUint16(raw[off+8:], uint16(len(e.name)))
		off += 10
		copy(raw[off:], e.name)
		off += len(e.name)
	}
	f0 := fs.sim.EventsFired()
	err := fs.writeRaw(p, in, 0, raw) // copies raw into the buffer cache
	fs.putDirBuf(raw)
	if err != nil {
		return err
	}
	in.size = uint32(size)
	now := fs.sim.Now()
	in.mtime, in.ctime = now, now
	in.dirtyCore, in.dirtyMeta = true, true
	if fs.sim.EventsFired() == f0 {
		// writeRaw ran without yielding (no event fired), so nothing could
		// interleave: the buffer cache holds exactly ents. Re-validate the
		// memo now, before the flushes below yield, so concurrent readers
		// skip a reparse. If writeRaw did yield, the memo stays invalid and
		// the next quiescent loadDir rebuilds it.
		in.dents, in.dentsOK = ents, true
	}
	// Directory writes are synchronous end to end.
	if err := fs.SyncData(p, in.num, 0, in.size); err != nil {
		return err
	}
	if err := fs.flushDirtyIndirect(p, in); err != nil {
		return err
	}
	return fs.flushInode(p, in, false, true)
}

// readRaw reads file bytes without touching atime (directory internal).
func (fs *FS) readRaw(p *sim.Proc, in *inode, off uint32, out []byte) (int, error) {
	read := 0
	n := len(out)
	for read < n {
		fb := int64(off+uint32(read)) / BlockSize
		bo := int64(off+uint32(read)) % BlockSize
		take := BlockSize - int(bo)
		if take > n-read {
			take = n - read
		}
		phys, _, err := fs.bmap(p, in, fb, false)
		if err != nil {
			return read, err
		}
		if phys == 0 {
			for i := 0; i < take; i++ {
				out[read+i] = 0
			}
		} else {
			b, err := fs.getBuf(p, phys, true)
			if err != nil {
				return read, err
			}
			b.blk.CopyOut(out[read:read+take], int(bo))
		}
		read += take
	}
	return read, nil
}

// writeRaw writes file bytes into the cache, marking blocks dirty
// (directory internal; callers flush).
func (fs *FS) writeRaw(p *sim.Proc, in *inode, off uint32, data []byte) error {
	written := 0
	for written < len(data) {
		fb := int64(off+uint32(written)) / BlockSize
		bo := int64(off+uint32(written)) % BlockSize
		take := BlockSize - int(bo)
		if take > len(data)-written {
			take = len(data) - written
		}
		phys, mc, err := fs.bmap(p, in, fb, true)
		if err != nil {
			return err
		}
		needFill := take != BlockSize && !mc
		b, cached := fs.cache[phys]
		if !cached {
			nb, err := fs.getBuf(p, phys, needFill)
			if err != nil {
				return err
			}
			b = nb
		}
		b.owner, b.fblock = in.num, fb
		var dst []byte
		if take == BlockSize {
			fs.ownFresh(b)
			dst = b.blk.Overwrite()
		} else {
			fs.own(b)
			dst = b.blk.Data()[bo:]
		}
		fs.pool.Acct().CountCopy(copy(dst, data[written:written+take]))
		b.dirty = true
		if mc {
			in.dirtyMeta = true
		}
		written += take
	}
	if end := off + uint32(len(data)); end > in.size {
		in.size = end
		in.dirtyMeta = true
	}
	return nil
}

// Lookup implements vfs.FileSystem.
func (fs *FS) Lookup(p *sim.Proc, dir vfs.Ino, name string) (vfs.Ino, error) {
	din, err := fs.getInode(dir)
	if err != nil {
		return 0, err
	}
	switch name {
	case ".", "":
		return dir, nil
	case "..":
		// Parent pointers are not tracked; root is its own parent and the
		// NFS layer resolves ".." only at the root in these workloads.
		return dir, nil
	}
	ents, err := fs.loadDir(p, din)
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		if e.name == name {
			return e.ino, nil
		}
	}
	return 0, vfs.ErrNoEnt
}

// Create implements vfs.FileSystem.
func (fs *FS) Create(p *sim.Proc, dir vfs.Ino, name string, mode uint32) (vfs.Ino, error) {
	return fs.makeNode(p, dir, name, mode, vfs.TypeReg)
}

// Mkdir implements vfs.FileSystem.
func (fs *FS) Mkdir(p *sim.Proc, dir vfs.Ino, name string, mode uint32) (vfs.Ino, error) {
	ino, err := fs.makeNode(p, dir, name, mode, vfs.TypeDir)
	if err != nil {
		return 0, err
	}
	in := fs.inodes[ino]
	in.nlink = 2
	return ino, nil
}

func (fs *FS) makeNode(p *sim.Proc, dir vfs.Ino, name string, mode uint32, ft vfs.FileType) (vfs.Ino, error) {
	if len(name) == 0 || len(name) > 255 {
		return 0, vfs.ErrNoEnt
	}
	din, err := fs.getInode(dir)
	if err != nil {
		return 0, err
	}
	ents, err := fs.loadDir(p, din)
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		if e.name == name {
			return 0, vfs.ErrExist
		}
	}
	in := fs.allocInode(ft, mode)
	if in == nil {
		return 0, vfs.ErrNoSpace
	}
	// In place past every reader's view (see the ownership rule above).
	ents = append(ents, dirent{ino: in.num, name: name})
	if err := fs.storeDir(p, din, ents); err != nil {
		return 0, err
	}
	// New inode durable too.
	if err := fs.flushInode(p, in, false, true); err != nil {
		return 0, err
	}
	return in.num, nil
}

// Remove implements vfs.FileSystem.
func (fs *FS) Remove(p *sim.Proc, dir vfs.Ino, name string) error {
	return fs.unlink(p, dir, name, false)
}

// Rmdir implements vfs.FileSystem.
func (fs *FS) Rmdir(p *sim.Proc, dir vfs.Ino, name string) error {
	return fs.unlink(p, dir, name, true)
}

func (fs *FS) unlink(p *sim.Proc, dir vfs.Ino, name string, wantDir bool) error {
	din, err := fs.getInode(dir)
	if err != nil {
		return err
	}
	ents, err := fs.loadDir(p, din)
	if err != nil {
		return err
	}
	for i, e := range ents {
		if e.name != name {
			continue
		}
		tin, err := fs.getInode(e.ino)
		if err != nil {
			return err
		}
		if wantDir {
			if tin.ftype != vfs.TypeDir {
				return vfs.ErrNotDir
			}
			sub, err := fs.loadDir(p, tin)
			if err != nil {
				return err
			}
			if len(sub) > 0 {
				return vfs.ErrNotEmpty
			}
		} else if tin.ftype == vfs.TypeDir {
			return vfs.ErrIsDir
		}
		ents = cloneDir(ents)
		ents = append(ents[:i], ents[i+1:]...)
		if err := fs.storeDir(p, din, ents); err != nil {
			return err
		}
		tin.nlink--
		if tin.nlink == 0 || (wantDir && tin.nlink <= 1) {
			return fs.freeInode(p, tin)
		}
		return fs.flushInode(p, tin, false, true)
	}
	return vfs.ErrNoEnt
}

// Rename implements vfs.FileSystem: it moves fromName in fromDir to toName
// in toDir, replacing any existing regular file at the destination.
func (fs *FS) Rename(p *sim.Proc, fromDir vfs.Ino, fromName string, toDir vfs.Ino, toName string) error {
	fdin, err := fs.getInode(fromDir)
	if err != nil {
		return err
	}
	fents, err := fs.loadDir(p, fdin)
	if err != nil {
		return err
	}
	fents = cloneDir(fents)
	var moved vfs.Ino
	idx := -1
	for i, e := range fents {
		if e.name == fromName {
			moved = e.ino
			idx = i
			break
		}
	}
	if idx < 0 {
		return vfs.ErrNoEnt
	}
	if fromDir == toDir {
		// Same-directory rename: single dir rewrite.
		for i, e := range fents {
			if e.name == toName && i != idx {
				if err := fs.dropTarget(p, e.ino); err != nil {
					return err
				}
				fents = append(fents[:i], fents[i+1:]...)
				if i < idx {
					idx--
				}
				break
			}
		}
		fents[idx].name = toName
		return fs.storeDir(p, fdin, fents)
	}
	tdin, err := fs.getInode(toDir)
	if err != nil {
		return err
	}
	tents, err := fs.loadDir(p, tdin)
	if err != nil {
		return err
	}
	tents = cloneDir(tents)
	for i, e := range tents {
		if e.name == toName {
			if err := fs.dropTarget(p, e.ino); err != nil {
				return err
			}
			tents = append(tents[:i], tents[i+1:]...)
			break
		}
	}
	fents = append(fents[:idx], fents[idx+1:]...)
	tents = append(tents, dirent{ino: moved, name: toName})
	if err := fs.storeDir(p, fdin, fents); err != nil {
		return err
	}
	return fs.storeDir(p, tdin, tents)
}

func (fs *FS) dropTarget(p *sim.Proc, ino vfs.Ino) error {
	tin, err := fs.getInode(ino)
	if err != nil {
		return err
	}
	if tin.ftype == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	tin.nlink--
	if tin.nlink == 0 {
		return fs.freeInode(p, tin)
	}
	return nil
}

// Readdir implements vfs.FileSystem. The cookie is the index of the next
// entry; count bounds the total name bytes returned.
func (fs *FS) Readdir(p *sim.Proc, dir vfs.Ino, cookie uint32, count int) ([]vfs.DirEntry, bool, error) {
	din, err := fs.getInode(dir)
	if err != nil {
		return nil, false, err
	}
	ents, err := fs.loadDir(p, din)
	if err != nil {
		return nil, false, err
	}
	var out []vfs.DirEntry
	bytes := 0
	for i := int(cookie); i < len(ents); i++ {
		bytes += 16 + len(ents[i].name)
		if bytes > count && len(out) > 0 {
			return out, false, nil
		}
		out = append(out, vfs.DirEntry{Ino: ents[i].ino, Name: ents[i].name, Cookie: uint32(i + 1)})
	}
	return out, true, nil
}
