package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The differential test below runs random process scripts on the kernel and
// on a reference model: an unsorted event list that keeps cancelled entries
// as tombstones until they are popped, with processes as interpreted
// scripts. The model is the kernel's contract written the slow way, so the
// two must agree on every fired event, the clock, EventsFired and Idle.

const (
	opSleep = iota
	opWaitTimeout
	opWait
	opSignal
	opAt
	opAtWeak
	opCancel
	opKill
	numOps
)

// diffOp is one script step. arg is a cond index (waits, Signal), a
// process index (Kill) or a handle pick (Cancel, taken modulo the handles
// issued so far).
type diffOp struct {
	kind int
	d    Duration
	arg  int
}

const (
	diffProcs = 6
	diffConds = 3
	// diffHandles caps the At/AtWeak calls callbacks may add, so callback
	// chains stay finite.
	diffHandles = 150
)

var diffDelays = []Duration{0, 0, 1, 2, 5, 10, 100, 1000}

func randOp(r *rand.Rand) diffOp {
	return diffOp{
		kind: r.Intn(numOps),
		d:    diffDelays[r.Intn(len(diffDelays))],
		arg:  r.Intn(1 << 20),
	}
}

// diffCase is one random interleaving: process scripts and spawn delays,
// Run bounds, and the driver ops applied before each bound.
type diffCase struct {
	seed    int64
	scripts [][]diffOp
	spawnAt []Duration
	untils  []Time // the last is 0: run to completion
	between [][]diffOp
}

func newDiffCase(seed int64) diffCase {
	r := rand.New(rand.NewSource(seed))
	c := diffCase{seed: seed}
	for i := 0; i < diffProcs; i++ {
		script := make([]diffOp, 5+r.Intn(25))
		for j := range script {
			script[j] = randOp(r)
		}
		c.scripts = append(c.scripts, script)
		c.spawnAt = append(c.spawnAt, diffDelays[r.Intn(len(diffDelays))])
	}
	var until Time
	for i := r.Intn(4); i > 0; i-- {
		until += Time(1 + r.Intn(1500))
		c.untils = append(c.untils, until)
	}
	c.untils = append(c.untils, 0)
	for range c.untils {
		ops := make([]diffOp, r.Intn(4))
		for j := range ops {
			ops[j] = randOp(r)
			ops[j].kind = opSignal + ops[j].kind%(numOps-opSignal) // non-blocking only
		}
		c.between = append(c.between, ops)
	}
	return c
}

// callbackOps is the script the callback of handle h runs: non-blocking
// ops only, the same for kernel and model.
func (c diffCase) callbackOps(h int) []diffOp {
	r := rand.New(rand.NewSource(c.seed*7919 + int64(h)))
	ops := make([]diffOp, r.Intn(3))
	for j := range ops {
		ops[j] = randOp(r)
		ops[j].kind = opSignal + ops[j].kind%(numOps-opSignal)
	}
	return ops
}

func who(self int) string {
	if self < 0 {
		return "cb"
	}
	return fmt.Sprintf("p%d", self)
}

// diffOutcome is what both sides must agree on.
type diffOutcome struct {
	log    []string // every fired callback, op and process end, stamped
	states []string // clock, EventsFired and Idle after each Run
}

// runKernel executes c on the kernel.
func runKernel(c diffCase) diffOutcome {
	var out diffOutcome
	s := New(1)
	logf := func(f string, a ...any) {
		out.log = append(out.log, fmt.Sprintf("t=%d ", s.Now())+fmt.Sprintf(f, a...))
	}
	conds := make([]*Cond, diffConds)
	for i := range conds {
		conds[i] = NewCond(s)
	}
	procs := make([]*Proc, diffProcs)
	var handles []Event
	var exec func(self int, op diffOp)
	exec = func(self int, op diffOp) {
		switch op.kind {
		case opSignal:
			logf("%s signal c%d %v", who(self), op.arg%diffConds, conds[op.arg%diffConds].Signal())
		case opKill:
			if k := op.arg % diffProcs; k != self {
				s.Kill(procs[k])
				logf("%s kill p%d", who(self), k)
			}
		case opCancel:
			if len(handles) > 0 {
				h := op.arg % len(handles)
				handles[h].Cancel()
				logf("%s cancel h%d", who(self), h)
			}
		case opAt, opAtWeak:
			if self < 0 && len(handles) >= diffHandles {
				return
			}
			h := len(handles)
			fn := func() {
				logf("cb h%d", h)
				for _, o := range c.callbackOps(h) {
					exec(-1, o)
				}
			}
			if op.kind == opAt {
				handles = append(handles, s.At(op.d, fn))
			} else {
				handles = append(handles, s.AtWeak(op.d, fn))
			}
			logf("%s at h%d +%d weak=%v", who(self), h, op.d, op.kind == opAtWeak)
		}
	}
	for i := range procs {
		procs[i] = s.SpawnAfter(c.spawnAt[i], who(i), func(p *Proc) {
			defer logf("p%d end", i)
			for _, op := range c.scripts[i] {
				switch op.kind {
				case opSleep:
					p.Sleep(op.d)
					logf("p%d slept", i)
				case opWaitTimeout:
					ok := conds[op.arg%diffConds].WaitTimeout(p, op.d)
					logf("p%d waited c%d %v", i, op.arg%diffConds, ok)
				case opWait:
					conds[op.arg%diffConds].Wait(p)
					logf("p%d waited c%d true", i, op.arg%diffConds)
				default:
					exec(i, op)
				}
			}
		})
	}
	for k, until := range c.untils {
		for _, op := range c.between[k] {
			exec(-1, op)
		}
		s.Run(until)
		out.states = append(out.states, fmt.Sprintf("now=%d fired=%d idle=%v", s.Now(), s.EventsFired(), s.Idle()))
	}
	// Close unwinds the processes still parked; their end lines are not
	// part of the compared run.
	done := out
	s.Close()
	return done
}

// The reference model.

type mEvent struct {
	t         Time
	seq       uint64
	h         int // callback handle, or -1
	p         int // process to dispatch, or -1
	w         *mWaiter
	weak      bool
	cancelled bool
	popped    bool
}

type mWaiter struct {
	c, p     int
	signaled bool
	timeout  *mEvent
}

type mProc struct {
	pc                    int
	started, done, killed bool
	waiting               *mWaiter
}

type model struct {
	c       diffCase
	now     Time
	seq     uint64
	fired   uint64
	events  []*mEvent // unsorted; cancelled entries stay until popped
	conds   [][]*mWaiter
	procs   []*mProc
	handles []*mEvent
	out     diffOutcome
}

func (m *model) logf(f string, a ...any) {
	m.out.log = append(m.out.log, fmt.Sprintf("t=%d ", m.now)+fmt.Sprintf(f, a...))
}

func (m *model) push(d Duration, e *mEvent) *mEvent {
	e.t, e.seq = m.now.Add(d), m.seq
	m.seq++
	m.events = append(m.events, e)
	return e
}

func (m *model) dispatchAt(d Duration, p int) { m.push(d, &mEvent{h: -1, p: p}) }

func (m *model) cancel(e *mEvent) {
	if e != nil && !e.popped {
		e.cancelled = true
	}
}

func (m *model) detach(w *mWaiter) {
	m.conds[w.c] = slices.DeleteFunc(m.conds[w.c], func(x *mWaiter) bool { return x == w })
}

func (m *model) signal(c int) bool {
	if len(m.conds[c]) == 0 {
		return false
	}
	w := m.conds[c][0]
	m.conds[c] = m.conds[c][1:]
	w.signaled = true
	m.cancel(w.timeout)
	m.dispatchAt(0, w.p)
	return true
}

func (m *model) kill(k int) {
	p := m.procs[k]
	if p.done || p.killed {
		return
	}
	p.killed = true
	if w := p.waiting; w != nil {
		m.detach(w)
		m.cancel(w.timeout)
		p.waiting = nil
	}
	m.dispatchAt(0, k)
}

func (m *model) exec(self int, op diffOp) {
	switch op.kind {
	case opSignal:
		m.logf("%s signal c%d %v", who(self), op.arg%diffConds, m.signal(op.arg%diffConds))
	case opKill:
		if k := op.arg % diffProcs; k != self {
			m.kill(k)
			m.logf("%s kill p%d", who(self), k)
		}
	case opCancel:
		if len(m.handles) > 0 {
			h := op.arg % len(m.handles)
			m.cancel(m.handles[h])
			m.logf("%s cancel h%d", who(self), h)
		}
	case opAt, opAtWeak:
		if self < 0 && len(m.handles) >= diffHandles {
			return
		}
		h := len(m.handles)
		m.handles = append(m.handles, m.push(op.d, &mEvent{h: h, p: -1, weak: op.kind == opAtWeak}))
		m.logf("%s at h%d +%d weak=%v", who(self), h, op.d, op.kind == opAtWeak)
	}
}

// dispatch resumes process i: it finishes the blocking op it was parked
// in, then interprets its script until the next blocking op or the end.
func (m *model) dispatch(i int) {
	p := m.procs[i]
	if p.done {
		return
	}
	script := m.c.scripts[i]
	if !p.started {
		p.started = true
		if p.killed {
			p.done = true // killed before first dispatch: the body never runs
			return
		}
	} else {
		if p.killed {
			p.done = true
			m.logf("p%d end", i)
			return
		}
		switch op := script[p.pc]; op.kind {
		case opSleep:
			m.logf("p%d slept", i)
		case opWaitTimeout, opWait:
			m.logf("p%d waited c%d %v", i, op.arg%diffConds, p.waiting.signaled)
			p.waiting = nil
		}
		p.pc++
	}
	for ; p.pc < len(script); p.pc++ {
		op := script[p.pc]
		switch op.kind {
		case opSleep:
			m.dispatchAt(op.d, i)
			return
		case opWaitTimeout, opWait:
			w := &mWaiter{c: op.arg % diffConds, p: i}
			if op.kind == opWaitTimeout {
				w.timeout = m.push(op.d, &mEvent{h: -1, p: -1, w: w})
			}
			m.conds[w.c] = append(m.conds[w.c], w)
			p.waiting = w
			return
		default:
			m.exec(i, op)
		}
	}
	p.done = true
	m.logf("p%d end", i)
}

func (m *model) liveOrdinary() bool {
	for _, e := range m.events {
		if !e.cancelled && !e.weak {
			return true
		}
	}
	return false
}

func (m *model) idle() bool {
	for _, e := range m.events {
		if !e.cancelled {
			return false
		}
	}
	return true
}

func (m *model) run(until Time) {
	for len(m.events) > 0 {
		k := 0
		for j, e := range m.events {
			if e.t < m.events[k].t || (e.t == m.events[k].t && e.seq < m.events[k].seq) {
				k = j
			}
		}
		e := m.events[k]
		if until > 0 && e.t > until {
			m.now = until
			break
		}
		m.events = slices.Delete(m.events, k, k+1)
		e.popped = true
		if e.cancelled || (e.weak && !m.liveOrdinary()) {
			continue
		}
		m.now = e.t
		m.fired++
		switch {
		case e.h >= 0:
			m.logf("cb h%d", e.h)
			for _, o := range m.c.callbackOps(e.h) {
				m.exec(-1, o)
			}
		case e.w != nil:
			m.detach(e.w)
			m.dispatch(e.w.p)
		default:
			m.dispatch(e.p)
		}
	}
	if until > 0 && m.now < until {
		m.now = until
	}
}

func runModel(c diffCase) diffOutcome {
	m := &model{c: c, conds: make([][]*mWaiter, diffConds)}
	for i := 0; i < diffProcs; i++ {
		m.procs = append(m.procs, &mProc{})
		m.dispatchAt(c.spawnAt[i], i)
	}
	for k, until := range c.untils {
		for _, op := range c.between[k] {
			m.exec(-1, op)
		}
		m.run(until)
		m.out.states = append(m.out.states, fmt.Sprintf("now=%d fired=%d idle=%v", m.now, m.fired, m.idle()))
	}
	return m.out
}

// TestKernelMatchesTombstoneModel drives seeded random interleavings of
// At, AtWeak, Cancel, Sleep, Wait, WaitTimeout, Signal and Kill through
// the kernel and the reference model and requires identical outcomes.
func TestKernelMatchesTombstoneModel(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 100
	}
	var fired, cancels int
	for seed := int64(0); seed < int64(seeds); seed++ {
		c := newDiffCase(seed)
		got, want := runKernel(c), runModel(c)
		if i := firstDiff(got.log, want.log); i >= 0 {
			t.Fatalf("seed %d: fire logs diverge at line %d:\nkernel: %s\nmodel:  %s",
				seed, i, lineAt(got.log, i), lineAt(want.log, i))
		}
		if i := firstDiff(got.states, want.states); i >= 0 {
			t.Fatalf("seed %d: state after Run %d: kernel %s, model %s",
				seed, i, lineAt(got.states, i), lineAt(want.states, i))
		}
		fired += len(got.log)
		for _, l := range got.log {
			if strings.Contains(l, " cancel ") {
				cancels++
			}
		}
	}
	// The generator must actually exercise the interleavings it claims to.
	if fired < 50*seeds || cancels < seeds {
		t.Fatalf("weak coverage: %d log lines, %d cancels over %d seeds", fired, cancels, seeds)
	}
}

func firstDiff(a, b []string) int {
	for i := 0; i < max(len(a), len(b)); i++ {
		if lineAt(a, i) != lineAt(b, i) {
			return i
		}
	}
	return -1
}

func lineAt(l []string, i int) string {
	if i < len(l) {
		return l[i]
	}
	return "<none>"
}
