package sim

import "testing"

// BenchmarkProcSwitch measures one round trip between two processes
// ping-ponging through a pair of Conds: two process switches per op.
func BenchmarkProcSwitch(b *testing.B) {
	s := New(1)
	defer s.Close()
	ping, pong := NewCond(s), NewCond(s)
	s.Spawn("pong", func(p *Proc) {
		for {
			pong.Wait(p)
			ping.Signal()
		}
	})
	n := b.N
	s.Spawn("ping", func(p *Proc) {
		for i := 0; i < n; i++ {
			pong.Signal()
			ping.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(0)
}

// BenchmarkWaitTimeoutSignaled measures an RPC-style wait: a process arms
// a one-second timeout and a callback signals it a microsecond later, so
// every timeout is cancelled long before its deadline.
func BenchmarkWaitTimeoutSignaled(b *testing.B) {
	s := New(1)
	defer s.Close()
	reply := NewCond(s)
	answer := func() { reply.Signal() }
	n := b.N
	s.Spawn("client", func(p *Proc) {
		for i := 0; i < n; i++ {
			s.At(Microsecond, answer)
			if !reply.WaitTimeout(p, Second) {
				b.Error("RPC timed out")
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(0)
}
