package cluster

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

// TestStaticBootAssemblyVariants: every hardware/software combination of
// the paper's testbed assembles a complete one-node stack.
func TestStaticBootAssemblyVariants(t *testing.T) {
	cases := []Config{
		{Net: hw.Ethernet(), Seed: 1},
		{Net: hw.FDDI(), Gathering: true, Seed: 1},
		{Net: hw.FDDI(), Presto: true, Gathering: true, Seed: 1},
		{Net: hw.FDDI(), StripeDisks: 3, Seed: 1},
		{Net: hw.FDDI(), Clients: 3, Biods: 4, Seed: 1},
	}
	for i, cfg := range cases {
		cfg.StaticBoot = true
		c := New(cfg)
		if len(c.Nodes) != 1 {
			t.Fatalf("case %d: %d nodes, want 1", i, len(c.Nodes))
		}
		n := c.Nodes[0]
		if n.Server == nil || n.FS == nil || len(c.Clients) == 0 {
			t.Fatalf("case %d: incomplete testbed", i)
		}
		if cfg.Clients > 0 && len(c.Clients) != cfg.Clients {
			t.Fatalf("case %d: %d clients, want %d", i, len(c.Clients), cfg.Clients)
		}
		if cfg.Presto && n.Presto == nil {
			t.Fatalf("case %d: missing presto", i)
		}
		if cfg.StripeDisks == 3 && (n.Stripe == nil || len(n.Disks) != 3) {
			t.Fatalf("case %d: missing stripe", i)
		}
		if cfg.Gathering != (n.Server.Engine() != nil) {
			t.Fatalf("case %d: gathering mismatch", i)
		}
	}
}

// TestStaticBootIntervalStatsExcludePrehistory: work finished before
// MarkInterval never leaks into the interval's rates.
func TestStaticBootIntervalStatsExcludePrehistory(t *testing.T) {
	c := New(Config{Net: hw.FDDI(), Seed: 1, StaticBoot: true})
	c.Sim.Spawn("app", func(p *sim.Proc) {
		cres, _ := c.Clients[0].Create(p, c.Roots()[0], "a", 0644)
		c.Clients[0].WriteSync(p, cres.File, 0, make([]byte, 8192))
		c.MarkInterval()
		// Nothing after the mark.
		p.Sleep(sim.Second)
	})
	c.Sim.Run(0)
	st := c.IntervalStats()
	if st.CPUMeanPercent != 0 || st.DiskKBps != 0 || st.DiskTps != 0 {
		t.Fatalf("interval stats include prehistory: %v %v %v", st.CPUMeanPercent, st.DiskKBps, st.DiskTps)
	}
}

// TestStaticBootContract pins what distinguishes the static boot from a
// crashable one-node cluster: the endpoint is named "server", the image
// is not flushed at t=0, replies carry no boot verifier, and it refuses
// to build more than one server.
func TestStaticBootContract(t *testing.T) {
	const firstRPC = sim.Time(sim.Second)
	// run builds a one-node testbed, writes one block starting at
	// firstRPC, and reports when the first platter transfer happened.
	run := func(static bool) (*Cluster, sim.Time) {
		c := New(Config{Net: hw.FDDI(), Gathering: true, Seed: 5, StaticBoot: static})
		firstDisk := sim.Time(-1)
		c.Nodes[0].Disks[0].OnOp = func(bool, int64, int, sim.Duration) {
			if firstDisk < 0 {
				firstDisk = c.Sim.Now()
			}
		}
		c.Sim.Spawn("app", func(p *sim.Proc) {
			p.Sleep(firstRPC.Sub(p.Now()))
			cres, err := c.Clients[0].Create(p, c.Roots()[0], "f", 0644)
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			if err := c.Clients[0].WriteSync(p, cres.File, 0, make([]byte, 8192)); err != nil {
				t.Errorf("write: %v", err)
			}
		})
		c.Sim.Run(0)
		return c, firstDisk
	}

	static, staticDisk := run(true)
	crashable, crashableDisk := run(false)
	if got := static.Nodes[0].Name; got != "server" {
		t.Errorf("static endpoint = %q, want \"server\"", got)
	}
	if got := crashable.Nodes[0].Name; got != "server1" {
		t.Errorf("crashable endpoint = %q, want \"server1\"", got)
	}
	if staticDisk < firstRPC {
		t.Errorf("static boot touched the disk at %v, before the first client RPC at %v", staticDisk, firstRPC)
	}
	if crashableDisk >= firstRPC {
		t.Errorf("crashable boot made no t=0 image flush (first disk op at %v)", crashableDisk)
	}
	if n := static.Clients[0].RebootsSeen; n != 0 {
		t.Errorf("static boot: RebootsSeen = %d, want 0", n)
	}
	// Same calls, same replies: the verifier-free replies are the only
	// wire difference between the two boots.
	if static.Net.SentDatagrams != crashable.Net.SentDatagrams {
		t.Fatalf("datagrams differ: static %d, crashable %d", static.Net.SentDatagrams, crashable.Net.SentDatagrams)
	}
	if static.Net.SentBytes >= crashable.Net.SentBytes {
		t.Errorf("static replies carry a verifier: %d wire bytes, crashable %d", static.Net.SentBytes, crashable.Net.SentBytes)
	}

	defer func() {
		if recover() == nil {
			t.Error("StaticBoot with Servers: 2 did not panic")
		}
	}()
	New(Config{Net: hw.FDDI(), Servers: 2, StaticBoot: true})
}
