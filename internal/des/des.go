// Package des is a deterministic discrete-event simulation core used by
// the circuit-level clock simulations (internal/wiresim), the clocked and
// self-timed array runners, and the hybrid synchronization network. Events
// scheduled for the same time fire in scheduling order, so simulations are
// reproducible.
package des

import (
	"fmt"
	"math"
)

// Sim is a discrete-event simulator. The zero value is ready to use.
type Sim struct {
	pq   []event // binary min-heap in (time, seq) order
	now  float64
	seq  int64
	step int64
}

type event struct {
	time float64
	seq  int64 // tie-break: FIFO among equal-time events
	fn   func()
}

// before is the queue order. (time, seq) is a total order — seq is
// unique and NaN times are refused by At — so every correct priority
// queue pops events in the same sequence.
func (e *event) before(f *event) bool {
	if e.time != f.time {
		return e.time < f.time
	}
	return e.seq < f.seq
}

// push adds e to the heap, sifting it up from the new last slot.
func (s *Sim) push(e event) {
	s.pq = append(s.pq, e)
	h := s.pq
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// pop removes and returns the earliest event. The vacated last slot is
// cleared so the popped closure can be collected.
func (s *Sim) pop() event {
	h := s.pq
	n := len(h) - 1
	top, last := h[0], h[n]
	h[n] = event{}
	h = h[:n]
	s.pq = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}

// Now returns the current simulation time.
func (s *Sim) Now() float64 { return s.now }

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return len(s.pq) }

// Steps returns the number of events executed so far.
func (s *Sim) Steps() int64 { return s.step }

// At schedules fn to run at absolute time t. Scheduling into the past
// (before Now) panics: it indicates a causality bug in the caller.
func (s *Sim) At(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling at %g before now %g", t, s.now))
	}
	if math.IsNaN(t) {
		panic("des: scheduling at NaN")
	}
	s.push(event{time: t, seq: s.seq, fn: fn})
	s.seq++
}

// After schedules fn to run delay time units from now; delay must be
// non-negative.
func (s *Sim) After(delay float64, fn func()) {
	s.At(s.now+delay, fn)
}

// Step executes the earliest pending event and returns true, or returns
// false if no events remain.
func (s *Sim) Step() bool {
	if len(s.pq) == 0 {
		return false
	}
	e := s.pop()
	s.now = e.time
	s.step++
	e.fn()
	return true
}

// Run executes events until the queue drains, returning the final time.
// maxEvents bounds the number of events executed (guarding against
// runaway self-scheduling loops): it panics when an event would run
// beyond the budget, so exactly maxEvents events drain cleanly.
func (s *Sim) Run(maxEvents int64) float64 {
	for i := int64(0); len(s.pq) > 0; i++ {
		if i >= maxEvents {
			panic(fmt.Sprintf("des: event budget %d exhausted at t=%g", maxEvents, s.now))
		}
		s.Step()
	}
	return s.now
}

// RunUntil executes events with time ≤ tEnd (inclusive), leaving later
// events queued, and advances Now to tEnd.
func (s *Sim) RunUntil(tEnd float64, maxEvents int64) {
	for i := int64(0); len(s.pq) > 0 && s.pq[0].time <= tEnd; i++ {
		if i >= maxEvents {
			panic(fmt.Sprintf("des: event budget %d exhausted at t=%g", maxEvents, s.now))
		}
		s.Step()
	}
	if tEnd > s.now {
		s.now = tEnd
	}
}
