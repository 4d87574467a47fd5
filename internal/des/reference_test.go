package des

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceSim is the simulator as it was before the typed heap: the
// same API over a container/heap queue of boxed events. It is kept
// verbatim as the oracle for Sim's firing order.
type referenceSim struct {
	pq   eventHeap
	now  float64
	seq  int64
	step int64
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func (s *referenceSim) Now() float64 { return s.now }

func (s *referenceSim) At(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling at %g before now %g", t, s.now))
	}
	if math.IsNaN(t) {
		panic("des: scheduling at NaN")
	}
	heap.Push(&s.pq, event{time: t, seq: s.seq, fn: fn})
	s.seq++
}

func (s *referenceSim) Step() bool {
	if len(s.pq) == 0 {
		return false
	}
	e := heap.Pop(&s.pq).(event)
	s.now = e.time
	s.step++
	e.fn()
	return true
}

// scheduler is the part of the API a differential schedule drives.
type scheduler interface {
	Now() float64
	At(t float64, fn func())
	Step() bool
}

// firing is one executed event: its label and the clock it saw.
type firing struct {
	id  int
	now float64
}

// runSchedule drives sim through one random schedule drawn from seed and
// returns the firing log. Times come from a small grid (heavy equal-time
// ties, including +0 and −0) and every event may schedule children, at
// its own time or later, so ties arise mid-run as well as up front.
func runSchedule(sim scheduler, seed int64) []firing {
	rng := rand.New(rand.NewSource(seed))
	grid := []float64{0, math.Copysign(0, -1), 0.5, 1, 1, 2, 3.25, 7}
	var log []firing
	next := 0
	var spawn func(t float64, depth int)
	spawn = func(t float64, depth int) {
		id := next
		next++
		sim.At(t, func() {
			log = append(log, firing{id, sim.Now()})
			if depth > 0 {
				for c := rng.Intn(3); c > 0; c-- {
					spawn(sim.Now()+grid[rng.Intn(len(grid))]*float64(rng.Intn(2)), depth-1)
				}
			}
		})
	}
	for i, n := 0, 1+rng.Intn(200); i < n; i++ {
		spawn(grid[rng.Intn(len(grid))], rng.Intn(4))
	}
	for sim.Step() {
	}
	return log
}

// TestSimMatchesReference diffs the typed heap's firing order and Now()
// against the container/heap reference, event for event, over random
// schedules with heavy ties and self-scheduling events.
func TestSimMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		got := runSchedule(&Sim{}, seed)
		want := runSchedule(&referenceSim{}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d firings, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] || math.Signbit(got[i].now) != math.Signbit(want[i].now) {
				t.Fatalf("seed %d firing %d: %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestPopClearsSlot: a popped event's closure is not kept alive by the
// queue's backing array.
func TestPopClearsSlot(t *testing.T) {
	var s Sim
	s.At(1, func() {})
	s.At(2, func() {})
	s.Step()
	if backing := s.pq[:cap(s.pq)]; backing[len(s.pq)].fn != nil {
		t.Error("popped slot still holds its closure")
	}
}

// BenchmarkSimStep is one push and one pop against a queue holding 1,024
// pending events, the steady state of a large event-driven run.
func BenchmarkSimStep(b *testing.B) {
	var s Sim
	rng := rand.New(rand.NewSource(1))
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.At(rng.Float64()*100, fn)
	}
	s.After(rng.Float64()*100, fn) // grow the queue past its steady size
	s.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(rng.Float64()*100, fn)
		s.Step()
	}
}
