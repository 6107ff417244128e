package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// goroutinesBackTo polls until the goroutine count drops to base or the
// timeout passes, and returns the last count seen, in case a goroutine
// the test started is still winding down when Close returns.
func goroutinesBackTo(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseUnwindsEveryParkedProcess parks processes in every state the
// kernel knows and checks that Close unwinds all of them: each deferred
// cleanup runs exactly once, no process is left, and every goroutine the
// sim started has exited.
func TestCloseUnwindsEveryParkedProcess(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(1)
	cleanups := map[string]int{}
	var resumed []string
	park := func(name string, block func(p *Proc)) *Proc {
		return s.Spawn(name, func(p *Proc) {
			defer func() { cleanups[name]++ }()
			block(p)
			resumed = append(resumed, name)
		})
	}

	c := NewCond(s)
	park("cond", func(p *Proc) { c.Wait(p) })
	park("cond-timeout", func(p *Proc) { c.WaitTimeout(p, Second) })

	q := NewQueue[int](s, 0)
	park("queue", func(p *Proc) { q.Get(p) })

	r := NewResource(s, 1)
	park("holder", func(p *Proc) { r.Use(p, Second) })
	park("acquire", func(p *Proc) {
		p.Sleep(1) // let the holder take the slot first
		r.Acquire(p)
		defer r.Release()
	})

	park("sleep", func(p *Proc) { p.Sleep(Second) })

	ran := map[string]bool{}
	s.SpawnAfter(Second, "never", func(p *Proc) { ran["never"] = true })

	killed := park("killed", func(p *Proc) { c.Wait(p) })

	var kids []*Proc
	park("parent", func(p *Proc) {
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("child-%d", i)
			kids = append(kids, s.SpawnChild(p, name, func(p *Proc) {
				defer func() { cleanups[name]++ }()
				p.Sleep(Second)
				resumed = append(resumed, name)
			}))
		}
		p.Sleep(Second)
	})

	s.Run(Time(Millisecond))
	// Killed after its last dispatch: the wake-up that would unwind it is
	// still pending when Close discards every event.
	s.Kill(killed)

	if n := s.NumProcs(); n != 12 {
		t.Fatalf("NumProcs before Close = %d, want 12", n)
	}
	if r.InUse() != 1 {
		t.Fatalf("resource InUse = %d before Close, want 1 (holder)", r.InUse())
	}
	s.Close()

	if n := s.NumProcs(); n != 0 {
		t.Fatalf("NumProcs after Close = %d", n)
	}
	if len(resumed) != 0 {
		t.Fatalf("model code resumed during teardown: %v", resumed)
	}
	if ran["never"] {
		t.Fatal("a never-dispatched process ran its body during teardown")
	}
	for _, name := range []string{"cond", "cond-timeout", "queue", "holder", "acquire",
		"sleep", "killed", "parent", "child-0", "child-1", "child-2"} {
		if got := cleanups[name]; got != 1 {
			t.Errorf("%s: deferred cleanup ran %d times, want 1", name, got)
		}
	}
	for _, k := range kids {
		if !k.Done() || !k.Killed() {
			t.Errorf("%s: done=%v killed=%v after Close", k.Name(), k.Done(), k.Killed())
		}
	}
	if r.InUse() != 0 {
		t.Errorf("resource InUse = %d after Close: the holder's deferred release did not run", r.InUse())
	}
	if n := goroutinesBackTo(base); n > base {
		t.Fatalf("%d goroutines after Close, baseline %d", n, base)
	}
}

// TestCloseFiresNoCallback: pending callbacks are discarded, not run, and
// a self-rescheduling process stops with the rest.
func TestCloseFiresNoCallback(t *testing.T) {
	s := New(1)
	fired := 0
	s.At(Second, func() { fired++ })
	s.AtWeak(Second, func() { fired++ })
	ticks := 0
	s.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(Millisecond)
			ticks++
		}
	})
	s.Run(10 * Time(Millisecond))
	before, now := ticks, s.Now()
	s.Close()
	if fired != 0 {
		t.Fatalf("%d callbacks fired during Close", fired)
	}
	if ticks != before || s.Now() != now {
		t.Fatalf("teardown ran model time: ticks %d -> %d, clock %d -> %d", before, ticks, now, s.Now())
	}
	if s.NumProcs() != 0 {
		t.Fatalf("NumProcs = %d after Close", s.NumProcs())
	}
}

// TestCloseIdempotent: a second Close is a no-op.
func TestCloseIdempotent(t *testing.T) {
	s := New(1)
	s.Spawn("sleeper", func(p *Proc) { p.Sleep(Second) })
	s.Run(Time(Millisecond))
	s.Close()
	s.Close()
	if s.NumProcs() != 0 {
		t.Fatalf("NumProcs = %d", s.NumProcs())
	}
}

// TestUseAfterClosePanics: Spawn, At and Run on a closed sim panic.
func TestUseAfterClosePanics(t *testing.T) {
	for name, use := range map[string]func(s *Sim){
		"Spawn":      func(s *Sim) { s.Spawn("late", func(p *Proc) {}) },
		"SpawnAfter": func(s *Sim) { s.SpawnAfter(1, "late", func(p *Proc) {}) },
		"At":         func(s *Sim) { s.At(1, func() {}) },
		"AtWeak":     func(s *Sim) { s.AtWeak(1, func() {}) },
		"Run":        func(s *Sim) { s.Run(0) },
	} {
		s := New(1)
		s.Close()
		func() {
			defer func() {
				if r := recover(); r != "sim: use after Close" {
					t.Errorf("%s after Close: recovered %v", name, r)
				}
			}()
			use(s)
		}()
	}
}

// TestCloseAfterProcessPanic: a sim that died from a process panic is
// reclaimed too. A cleanup that panics during teardown is dropped, and
// the original panic is what Run raised.
func TestCloseAfterProcessPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(1)
	c := NewCond(s)
	cleaned := 0
	s.Spawn("waiter", func(p *Proc) {
		defer func() { cleaned++ }()
		defer func() { panic("cleanup failed") }()
		c.Wait(p)
	})
	s.Spawn("bomb", func(p *Proc) {
		p.Sleep(Millisecond)
		panic("boom")
	})
	var raised any
	func() {
		defer func() { raised = recover() }()
		s.Run(0)
	}()
	if !strings.Contains(fmt.Sprint(raised), `process "bomb" panicked`) ||
		!strings.Contains(fmt.Sprint(raised), "boom") {
		t.Fatalf("Run raised %v, want the bomb's panic", raised)
	}
	s.Close()
	if cleaned != 1 {
		t.Fatalf("waiter cleanup ran %d times, want 1", cleaned)
	}
	if s.NumProcs() != 0 {
		t.Fatalf("NumProcs = %d after Close", s.NumProcs())
	}
	if n := goroutinesBackTo(base); n > base {
		t.Fatalf("%d goroutines after Close, baseline %d", n, base)
	}
}

// TestCloseUnwindsBlockingCleanup: a cleanup that blocks again while its
// process unwinds is unwound in turn; Close keeps going until no process
// is left.
func TestCloseUnwindsBlockingCleanup(t *testing.T) {
	s := New(1)
	c := NewCond(s)
	stages := 0
	s.Spawn("stubborn", func(p *Proc) {
		defer func() { stages++ }()
		defer func() {
			stages++
			c.Wait(p) // parks again mid-unwind
			stages += 100
		}()
		c.Wait(p)
	})
	s.Run(0)
	s.Close()
	if stages != 2 {
		t.Fatalf("stages = %d, want 2 (both cleanups ran, the re-park did not resume)", stages)
	}
	if s.NumProcs() != 0 || c.Waiters() != 0 {
		t.Fatalf("NumProcs = %d, waiters = %d after Close", s.NumProcs(), c.Waiters())
	}
}

// TestLiveSetShrinks: finished processes leave the live set, so a stream
// of short-lived processes does not grow it.
func TestLiveSetShrinks(t *testing.T) {
	s := New(1)
	s.Spawn("source", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			s.Spawn("arrival", func(p *Proc) { p.Sleep(Duration(1 + i%7)) })
			p.Sleep(1)
		}
	})
	peak := 0
	var sample func()
	sample = func() {
		if n := s.NumProcs(); n > peak {
			peak = n
		}
		s.AtWeak(1, sample)
	}
	s.AtWeak(0, sample)
	s.Run(0)
	if s.NumProcs() != 0 {
		t.Fatalf("NumProcs = %d after the run", s.NumProcs())
	}
	if peak > 10 {
		t.Fatalf("live set peaked at %d with at most 8 processes alive", peak)
	}
	if cap(s.procs) > 16 {
		t.Fatalf("live set capacity %d: finished processes were not reclaimed", cap(s.procs))
	}
}

// TestCallbackPanicSurfacesFromRun: a panicking callback is recovered by
// the Run caller whichever goroutine ran it — the driver's loop, a live
// process's yield, or the loop after a process finished — and Close then
// reclaims every goroutine the sim started.
func TestCallbackPanicSurfacesFromRun(t *testing.T) {
	boom := func() { panic("boom") }
	for name, build := range map[string]func(s *Sim){
		"driver loop": func(s *Sim) {
			s.At(Millisecond, boom)
		},
		"live process yield": func(s *Sim) {
			s.Spawn("sleeper", func(p *Proc) {
				s.At(0, boom)
				p.Sleep(Millisecond) // the sleeper's own loop fires boom
			})
		},
		"after process finished": func(s *Sim) {
			s.Spawn("short", func(p *Proc) {
				p.Sleep(Millisecond)
				s.At(0, boom)
			})
		},
	} {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			s := New(1)
			c := NewCond(s)
			cleaned := 0
			s.Spawn("waiter", func(p *Proc) {
				defer func() { cleaned++ }()
				c.Wait(p)
			})
			build(s)
			var raised any
			func() {
				defer func() { raised = recover() }()
				s.Run(0)
			}()
			if !strings.Contains(fmt.Sprint(raised), "boom") {
				t.Fatalf("Run raised %v, want the callback's panic", raised)
			}
			s.Close()
			if cleaned != 1 || s.NumProcs() != 0 {
				t.Fatalf("waiter cleanup ran %d times, NumProcs = %d after Close", cleaned, s.NumProcs())
			}
			if n := goroutinesBackTo(base); n > base {
				t.Fatalf("%d goroutines after Close, baseline %d", n, base)
			}
		})
	}
}
