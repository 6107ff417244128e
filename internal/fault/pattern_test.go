package fault

import (
	"bytes"
	"testing"

	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/sim"
)

// TestAuditCatchesMisplacedLazyBlock: the platters hold lazy pattern
// buffers (file offset only, no bytes), so the audit must compare what
// the recovered filesystem reads back with an independently generated
// pattern — never a descriptor with itself. A crash discards the buffer
// cache; then the buffer for file offset 8K is planted in the platter
// slot that holds offset 0. The audit must report that block lost, byte
// for byte, while the unplanted control run loses nothing.
func TestAuditCatchesMisplacedLazyBlock(t *testing.T) {
	for _, plant := range []bool{false, true} {
		c, j, done := streamRig(t, cluster.Config{
			Net: hw.FDDI(), Clients: 1, Servers: 1, Gathering: true,
			Seed: 16, ClientRetries: 40,
		}, 2*block.Size)
		in := NewInjector(c)
		in.Journal = j
		in.Schedule(Crash{Node: 0, At: sim.Time(500 * sim.Millisecond), Outage: 100 * sim.Millisecond})
		c.Sim.Run(0)
		if *done != 1 || in.Reboots != 1 {
			t.Fatalf("plant=%v: stream done=%d reboots=%d (failures: %v)", plant, *done, in.Reboots, in.Failures)
		}

		d := c.Nodes[0].Disks[0]
		want := make([]byte, block.Size)
		block.FillPattern(want, 0)
		slot := int64(-1)
		for blk := int64(0); blk < d.NumBlocks(); blk++ {
			if b := d.Stored(blk); b != nil && bytes.Equal(d.PeekBlock(blk), want) {
				if !b.Lazy() {
					t.Fatalf("plant=%v: the stored file block was materialized", plant)
				}
				slot = blk
				break
			}
		}
		if slot < 0 {
			t.Fatalf("plant=%v: no platter block holds file offset 0", plant)
		}
		if plant {
			misplaced := block.NewAccounting().NewPool().GetPattern(block.Size)
			d.InjectBuf(slot, misplaced)
			misplaced.Release()
		}

		res := verify(c, j)
		t.Logf("plant=%v: file offset 0 at platter block %d; %d of %d acked bytes lost",
			plant, slot, res.LostBytes, res.AckedBytes)
		switch {
		case !plant && res.LostBytes != 0:
			t.Fatalf("control run lost %d bytes: %s", res.LostBytes, res.FirstLoss)
		case plant && res.LostBytes != block.Size:
			// The two offsets' patterns differ in every byte (the x>>13
			// term), so the whole planted block must count as lost.
			t.Fatalf("planted misplaced block: audit lost %d bytes, want %d (%s)",
				res.LostBytes, block.Size, res.FirstLoss)
		}
	}
}
