// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel.
//
// A Sim owns a virtual clock and an event heap. Model code runs either as
// plain callbacks scheduled with At, or as processes (Proc) spawned with
// Spawn. A process body runs as a runtime coroutine (iter.Pull) that only
// the Run caller resumes, so at most one process executes at a time and
// control transfers are totally ordered by (virtual time, sequence number):
// a simulation run is fully deterministic for a given seed.
//
// Processes block with Proc.Sleep, Cond.Wait, Resource.Acquire, or
// Queue.Get. While a process is blocked it consumes no virtual time beyond
// what it asked for; its coroutine stays suspended until the kernel
// dispatches it again. Close unwinds whatever is still suspended when a
// simulation is done with, so its goroutines exit and the simulation can be
// collected.
//
// The event loop is a zero-allocation fast path: the pending set is a
// concrete 4-ary min-heap of pooled event records keyed on (time, seq), so
// scheduling involves no interface conversions and, once the free list has
// warmed up, no heap allocations. Process wake-ups (Sleep, Cond, Resource,
// Queue) are typed targets on the event record rather than closures, and a
// cancelled event leaves the heap at once.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
)

// Time is an absolute virtual time in microseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Common durations.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Millis reports the duration as floating-point milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Millis())
	default:
		return fmt.Sprintf("%dµs", int64(d))
	}
}

// Seconds reports the time as floating-point seconds since simulation start.
func (t Time) Seconds() float64 { return Duration(t).Seconds() }

// Millis reports the time as floating-point milliseconds since start.
func (t Time) Millis() float64 { return Duration(t).Millis() }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// event is the kernel's scheduled-occurrence record. Records are pooled:
// after an event fires or is cancelled, the record returns to the free list
// with its generation bumped, which invalidates any outstanding Event
// handles to the old occurrence. A record whose generation still matches a
// handle is pending, at slot idx of its sim's heap.
//
// Exactly one of fn, proc, waiter is set: fn is a plain callback, proc is a
// process to dispatch (Sleep/Spawn/wake-ups), waiter is a Cond.WaitTimeout
// deadline.
type event struct {
	t      Time
	seq    uint64
	fn     func()
	proc   *Proc
	waiter *condWaiter
	sim    *Sim
	idx    int
	weak   bool
	gen    uint64
}

func eventLess(a, b *event) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// Event is a cancellable handle to a scheduled occurrence. The zero value
// refers to nothing; cancelling it is a no-op.
type Event struct {
	e         *event
	gen       uint64
	cancelled bool
}

// Cancel prevents the event from firing: a pending event leaves the heap
// at once and its record is recycled. Cancelling an event that already
// fired or was already cancelled is a no-op: the handle's generation no
// longer matches the pooled record, so a recycled record is never touched.
func (e *Event) Cancel() {
	if e == nil {
		return
	}
	e.cancelled = true
	if r := e.e; r != nil && r.gen == e.gen {
		r.sim.heapRemove(r.idx)
		r.sim.recycle(r)
	}
}

// Cancelled reports whether Cancel was called through this handle.
func (e *Event) Cancelled() bool { return e != nil && e.cancelled }

// Sim is a discrete-event simulation instance. Create one with New; it is
// not safe for concurrent use from multiple OS threads outside the process
// discipline the kernel itself imposes.
type Sim struct {
	now    Time
	events []*event // 4-ary min-heap on (t, seq)
	free   []*event // event record free list
	seq    uint64
	rng    *rand.Rand
	fired  uint64
	until  Time // Run bound for the loop, 0 = none

	// ordinary counts the pending non-weak events (see AtWeak).
	ordinary int

	// procs is the live-process set: every spawned process that has not
	// finished, each at index Proc.idx. A finishing process swap-removes
	// itself, so short-lived processes never grow the set.
	procs []*Proc

	// closed is set by Close; the sim accepts no further work.
	closed bool

	// handoff is the process a yielding process's loop found due: the
	// yielding process suspends, and the Run caller resumes handoff next
	// (see drive).
	handoff *Proc

	// fatal carries a model-code panic from the process it unwound to the
	// Run caller, which re-raises it (see runProc). The transfer makes a
	// panicking simulation abort deterministically on the driving
	// goroutine — recoverable by harnesses like the scenario fuzzer.
	fatal *fatalPanic

	// Trace, when non-nil, receives a line per control transfer
	// (debugging). Per-instance so concurrently executing sims can be
	// traced independently without racing on a package global.
	Trace func(string)

	freeWaiters []*condWaiter
}

// fatalPanic records a panic captured in a process.
type fatalPanic struct {
	val   any
	proc  string
	stack []byte
}

// New returns a simulator with its clock at zero and the given RNG seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// EventsFired reports how many events have fired so far; useful for
// determinism checks and kernel tests.
func (s *Sim) EventsFired() uint64 { return s.fired }

func (s *Sim) newEvent() *event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free = s.free[:n-1]
		return e
	}
	return &event{sim: s}
}

// recycle returns a record that left the heap to the free list. Bumping the
// generation first makes any outstanding handle to the old occurrence inert.
func (s *Sim) recycle(e *event) {
	e.gen++
	e.fn = nil
	e.proc = nil
	e.waiter = nil
	e.weak = false
	s.free = append(s.free, e)
}

// schedule enqueues one ordinary event record d after the current time.
func (s *Sim) schedule(d Duration, fn func(), p *Proc, w *condWaiter) *event {
	e := s.record(d, fn, p, w)
	s.heapPush(e)
	return e
}

// record fills a fresh event record d after the current time with the next
// sequence number; the caller pushes it.
func (s *Sim) record(d Duration, fn func(), p *Proc, w *condWaiter) *event {
	if d < 0 {
		panic("sim: negative delay")
	}
	e := s.newEvent()
	e.t = s.now.Add(d)
	e.seq = s.seq
	e.fn, e.proc, e.waiter = fn, p, w
	s.seq++
	return e
}

// heapPush inserts e into the 4-ary min-heap.
func (s *Sim) heapPush(e *event) {
	if !e.weak {
		s.ordinary++
	}
	s.events = append(s.events, e)
	s.siftUp(e, len(s.events)-1)
}

// heapRemove takes the record at slot i out of the heap. Keys are unique,
// so removing one entry never reorders the others.
func (s *Sim) heapRemove(i int) {
	h := s.events
	n := len(h) - 1
	e, last := h[i], h[n]
	h[n] = nil
	s.events = h[:n]
	if !e.weak {
		s.ordinary--
	}
	if i < n {
		// The last record fills the hole; it may belong above or below it.
		if i > 0 && eventLess(last, h[(i-1)>>2]) {
			s.siftUp(last, i)
		} else {
			s.siftDown(last, i)
		}
	}
}

// siftUp settles e from slot i towards the root, moving later parents
// down into the hole and keeping every idx current.
func (s *Sim) siftUp(e *event, i int) {
	h := s.events
	for i > 0 {
		parent := (i - 1) >> 2
		q := h[parent]
		if !eventLess(e, q) {
			break
		}
		h[i], q.idx = q, i
		i = parent
	}
	h[i], e.idx = e, i
}

// siftDown settles e from slot i towards the leaves, moving the earliest
// child up into the hole and keeping every idx current.
func (s *Sim) siftDown(e *event, i int) {
	h := s.events
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if eventLess(h[j], h[m]) {
				m = j
			}
		}
		q := h[m]
		if !eventLess(q, e) {
			break
		}
		h[i], q.idx = q, i
		i = m
	}
	h[i], e.idx = e, i
}

// At schedules fn to run d after the current time and returns an Event so
// the caller may cancel it. d must be non-negative; a zero d schedules the
// callback after all other work already scheduled for the current instant.
func (s *Sim) At(d Duration, fn func()) Event {
	s.checkOpen()
	e := s.schedule(d, fn, nil, nil)
	return Event{e: e, gen: e.gen}
}

// AtWeak schedules fn like At, but as a weak event: at its scheduled time
// it fires only if at least one ordinary (non-weak) event is still pending.
// Otherwise the record is discarded without advancing the clock. A
// self-rescheduling observer (a periodic sampler) uses this so its next
// tick can never extend the simulation past the workload's natural
// quiesce: the run ends at exactly the instant it would have ended with no
// observer scheduled at all.
func (s *Sim) AtWeak(d Duration, fn func()) Event {
	s.checkOpen()
	e := s.record(d, fn, nil, nil)
	e.weak = true
	s.heapPush(e)
	return Event{e: e, gen: e.gen}
}

// wakeProc schedules a dispatch of p at the current instant without
// allocating a closure (the typed fast path behind Cond, Resource, Queue).
func (s *Sim) wakeProc(p *Proc) {
	s.schedule(0, nil, p, nil)
}

// Run processes events until the heap is empty or the clock would pass
// until (until <= 0 means run to completion). It returns the final clock.
// A panic raised by a callback or a process propagates from Run.
func (s *Sim) Run(until Time) Time {
	s.checkOpen()
	s.until = until
	s.drive()
	if f := s.fatal; f != nil {
		// Re-raise a captured process panic here, on the driving
		// goroutine. The simulation is dead; Close reclaims it.
		panic(fmt.Sprintf("sim: process %q panicked at t=%d: %v\n%s", f.proc, s.now, f.val, f.stack))
	}
	if until > 0 && s.now < until {
		s.now = until
	}
	return s.now
}

// drive runs the event loop on the Run caller's goroutine, the only one
// that resumes process coroutines. A resumed process runs until it
// suspends or finishes. A suspending process has already run the loop
// itself and names the next due process in s.handoff, which is resumed
// straight away; with no handoff the driver takes the loop back (a process
// finished, or the loop terminated).
func (s *Sim) drive() {
	p := s.loop()
	for p != nil {
		p.next()
		p, s.handoff = s.handoff, nil
		if p == nil {
			p = s.loop()
		}
	}
}

// loop is the event loop. It runs on the driver or inside a yielding
// process: it fires callbacks inline and returns the first process whose
// dispatch comes due, or nil when the loop terminates (heap empty, until
// reached, or a process panicked). A yielding process that gets itself
// back resumes model code with no switch at all (the Sleep fast path);
// any other process is resumed by the driver.
func (s *Sim) loop() *Proc {
	for len(s.events) > 0 && s.fatal == nil {
		e := s.events[0]
		if s.until > 0 && e.t > s.until {
			s.now = s.until
			return nil
		}
		s.heapRemove(0)
		if e.weak && s.ordinary == 0 {
			// A weak event with no ordinary work left behind it: drop it
			// without advancing the clock, so observers never stretch a
			// quiesced simulation.
			s.recycle(e)
			continue
		}
		if e.t < s.now {
			panic("sim: time went backwards")
		}
		s.now = e.t
		s.fired++
		fn, p, w := e.fn, e.proc, e.waiter
		s.recycle(e)
		if w != nil {
			// A WaitTimeout deadline: detach the waiter from its Cond
			// eagerly (no tombstone for Signal to sweep) and dispatch the
			// parked process.
			w.removed = true
			w.c.detach(w)
			p = w.p
		}
		if p == nil {
			fn()
			continue
		}
		// A wake-up may outlive its target: Kill unwinds a process on its
		// first dispatch, and any further events still aimed at it (an old
		// sleep deadline, a queued signal) are scrubbed here.
		if p.done {
			continue
		}
		if s.Trace != nil {
			s.Trace(fmt.Sprintf("t=%d dispatch %s", s.now, p.name))
		}
		return p
	}
	return nil
}

// Idle reports whether no events are pending. A cancelled event leaves
// the heap at once, so it never counts.
func (s *Sim) Idle() bool { return len(s.events) == 0 }

// NumProcs reports the number of live (spawned, not yet finished) processes.
func (s *Sim) NumProcs() int { return len(s.procs) }

// checkOpen panics if the sim has been closed.
func (s *Sim) checkOpen() {
	if s.closed {
		panic("sim: use after Close")
	}
}

// Close reclaims the simulation. It discards every pending event and
// kills every live process with Kill's semantics (waiter scrub, unwind
// through the blocking primitive on dispatch), then runs the loop until
// no process and no event remains: each suspended process unwinds, runs
// its deferred cleanups exactly once and its goroutine exits. No callback
// fires during teardown and any panic a cleanup raises is dropped; a panic
// captured before Close is kept, so a sim that died that way is reclaimed
// too.
//
// Close is idempotent. Spawn, At and Run on a closed sim panic. Nothing
// that reads simulation state (Now, counters, resources) is affected.
func (s *Sim) Close() {
	if s.closed {
		return
	}
	s.closed = true
	fatal := s.fatal
	s.fatal, s.until, s.Trace = nil, 0, nil
	for len(s.procs) > 0 {
		s.discardEvents()
		// Every live process takes exactly one fresh wake-up (any it had
		// pending was just discarded). The whole set is condemned, so a
		// Kill tree walk would only schedule duplicates.
		for _, p := range s.procs {
			p.killed = true
			s.unpark(p)
		}
		s.drive()
	}
	s.fatal = fatal
	s.procs, s.events, s.free, s.freeWaiters = nil, nil, nil, nil
}

// discardEvents drops every pending event unfired; outstanding handles
// go inert as their records are recycled.
func (s *Sim) discardEvents() {
	for i, e := range s.events {
		s.events[i] = nil
		s.recycle(e)
	}
	s.events = s.events[:0]
	s.ordinary = 0
}

// Proc is a simulation process: a coroutine scheduled cooperatively by the
// kernel. All blocking methods must be called from the process's own body.
type Proc struct {
	sim  *Sim
	name string
	// next resumes the process's coroutine until it suspends or finishes;
	// only the driver calls it. suspend, called from inside the coroutine,
	// returns control to the driver.
	next    func() (struct{}, bool)
	suspend func(struct{}) bool
	done    bool
	killed  bool
	// waiting is the cond waiter the process is currently parked on, if
	// any; Kill uses it to scrub the process out of the wait list.
	waiting *condWaiter
	// parent/children link helper processes (SpawnChild) to their owner
	// so Kill takes the whole tree down — an I/O fan-out must not outlive
	// the crashed host that issued it.
	parent   *Proc
	children []*Proc
	// idx is the process's slot in Sim.procs while it is live.
	idx int
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Sim returns the owning simulator.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Spawn starts fn as a new process. The process begins running at the
// current virtual time (after already-scheduled work for this instant).
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.SpawnAfter(0, name, fn)
}

// SpawnAfter starts fn as a new process after delay d.
func (s *Sim) SpawnAfter(d Duration, name string, fn func(p *Proc)) *Proc {
	s.checkOpen()
	p := &Proc{sim: s, name: name, idx: len(s.procs)}
	s.procs = append(s.procs, p)
	// The coroutine runs to completion (Close kills whatever is still
	// suspended), so its stop function is never needed.
	p.next, _ = iter.Pull(func(suspend func(struct{}) bool) {
		p.suspend = suspend
		runProc(p, fn)
		p.done = true
		p.unlinkParent()
		s.removeProc(p)
	})
	s.schedule(d, nil, p, nil)
	return p
}

// SpawnChild starts fn as a helper process owned by parent: killing the
// parent kills the child too. Device fan-outs (a stripe splitting one
// transfer across members) use it so in-flight member I/O dies with the
// crashed host instead of completing posthumously. Scheduling is identical
// to Spawn.
func (s *Sim) SpawnChild(parent *Proc, name string, fn func(p *Proc)) *Proc {
	p := s.Spawn(name, fn)
	p.parent = parent
	parent.children = append(parent.children, p)
	return p
}

// removeProc swap-removes a finished process from the live set (runs as
// the process's coroutine ends).
func (s *Sim) removeProc(p *Proc) {
	last := len(s.procs) - 1
	moved := s.procs[last]
	s.procs[p.idx] = moved
	moved.idx = p.idx
	s.procs[last] = nil
	s.procs = s.procs[:last]
}

// unlinkParent removes a finished child from its parent's list (runs as
// the child's coroutine ends).
func (p *Proc) unlinkParent() {
	if p.parent == nil {
		return
	}
	kids := p.parent.children
	for i, c := range kids {
		if c == p {
			kids[i] = kids[len(kids)-1]
			kids[len(kids)-1] = nil
			p.parent.children = kids[:len(kids)-1]
			break
		}
	}
	p.parent = nil
}

// killSentinel is the panic value that unwinds a killed process's stack;
// runProc swallows it so only the victim dies.
type killSentinel struct{}

// runProc runs a process body, absorbing the kill unwind. Any other
// panic — from model code, or from a callback the process's loop fired —
// is captured into s.fatal once the process's deferred cleanups have run,
// and the loop shuts down so the Run caller can re-raise it on the
// driving goroutine.
func runProc(p *Proc, fn func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); ok {
				return
			}
			// A panic during Close's teardown is dropped: the result the
			// sim produced is already taken, and teardown must not fail.
			if p.sim.fatal == nil && !p.sim.closed {
				p.sim.fatal = &fatalPanic{val: r, proc: p.name, stack: debug.Stack()}
			}
		}
	}()
	if p.killed {
		return // killed before first dispatch
	}
	fn(p)
}

// Kill marks p for termination: the next time the kernel dispatches it, the
// process unwinds (deferred cleanups run) instead of resuming model code.
// If p is parked on a Cond/Queue/Resource it is scrubbed from the wait list
// immediately, so no later Signal is wasted on it, and a wake-up is
// scheduled at the current instant to deliver the kill promptly. Killing a
// finished or already-killed process is a no-op. A process cannot kill
// itself — unwind by returning instead.
//
// Kill models a crash, not a graceful stop: the victim's stack unwinds
// mid-operation, so shared structures it is mid-flight on must release via
// defer (the kernel's own Resource.Use does; so do the disk arm and the
// network medium).
func (s *Sim) Kill(p *Proc) {
	if p == nil || p.done || p.killed {
		return
	}
	p.killed = true
	// Take down owned helpers first (SpawnChild): their in-flight work
	// belongs to this process's host.
	for _, c := range p.children {
		s.Kill(c)
	}
	s.unpark(p)
}

// unpark delivers a kill: it scrubs p out of any wait list and schedules
// its dispatch at the current instant, where it unwinds.
func (s *Sim) unpark(p *Proc) {
	if w := p.waiting; w != nil {
		// Scrub the parked process out of its wait list so a future
		// Signal is not spent on a corpse, cancel any pending timeout,
		// and recycle the waiter record (the unwinding Wait will not).
		w.removed = true
		w.c.detach(w)
		w.timeout.Cancel()
		p.waiting = nil
		s.putWaiter(w)
	}
	s.wakeProc(p)
}

// Killed reports whether Kill has been called on the process.
func (p *Proc) Killed() bool { return p.killed }

// Done reports whether the process has finished (returned or unwound).
// Fault injectors use it to tell a completed application from one their
// kill actually took down.
func (p *Proc) Done() bool { return p.done }

// yield blocks the process until its next dispatch. The process runs the
// event loop itself first: if its own wake-up comes due before any other
// process's, it resumes with no switch; otherwise it names the due process
// in s.handoff and suspends to the driver. A killed process never resumes
// model code: the kill unwinds its stack here, through whatever blocking
// primitive parked it.
func (p *Proc) yield() {
	s := p.sim
	if q := s.loop(); q != p {
		s.handoff = q
		p.suspend(struct{}{})
	}
	if p.killed {
		panic(killSentinel{})
	}
}

// Sleep blocks the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	p.sim.schedule(d, nil, p, nil)
	p.yield()
}

// Park blocks the process until some other party wakes it via the returned
// wake function. The wake function may be called at most once, from kernel
// context (an event callback or another process); it schedules the wakeup
// at the current virtual time.
func (p *Proc) Park() (wake func()) {
	woken := false
	return func() {
		if woken {
			panic("sim: double wake of process " + p.name)
		}
		woken = true
		p.sim.wakeProc(p)
	}
}

// Block parks the process; the wake function returned by a prior Park
// arrangement releases it. Callers typically use higher-level Cond, Resource
// or Queue instead.
func (p *Proc) Block() { p.yield() }
