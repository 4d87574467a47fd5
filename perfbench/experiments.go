package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	vlsisync "repro"
	"repro/internal/obs"
)

// expSetupRepeats is how many warm-up passes of the quick suite the
// experiments workload times for setup_s.
const expSetupRepeats = 3

// passOrder is the experiment order of one pass: a permutation of the
// suite that depends only on (seed, pass).
func passOrder(ids []string, seed int64, pass int) []string {
	r := rand.New(rand.NewSource(seed*7919 + int64(pass)))
	out := make([]string, len(ids))
	for i, p := range r.Perm(len(ids)) {
		out[i] = ids[p]
	}
	return out
}

// expWindow is a fixed number of full-suite passes on one worker.
type expWindow struct {
	passMS     []float64
	errs       []error
	wall       time.Duration
	allocBytes uint64
	gcCycles   uint32
	peakRSS    int64
}

// runPasses runs the passes, checking that every experiment passes and
// renders the same table bytes as in want (filled on first sight). With
// a tracer each experiment runs inside a layer span under its pass's
// root span.
func runPasses(cfg runConfig, tracer *obs.Tracer, want map[string][]byte) *expWindow {
	ids := vlsisync.ExperimentIDs()
	w := &expWindow{passMS: make([]float64, cfg.ops), errs: make([]error, cfg.ops)}
	runtime.GC() // start from the same heap state, whatever set-up left
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for p := range w.passMS {
		ctx, root := obs.Start(obs.WithTracer(context.Background(), tracer), "bench.pass", obs.Int("pass", int64(p)))
		t0 := time.Now()
		tables := make(map[string][]byte, len(ids))
		for _, id := range passOrder(ids, cfg.seed, p) {
			res, err := timed(ctx, "experiments."+id, func() (*vlsisync.ExperimentResult, error) {
				return vlsisync.RunExperimentCtx(ctx, id, false)
			})
			switch {
			case err != nil:
				w.errs[p] = fmt.Errorf("pass %d: %s: %w", p, id, err)
			case !res.Pass:
				w.errs[p] = fmt.Errorf("pass %d: %s did not pass: %s", p, id, res.Finding)
			default:
				var buf bytes.Buffer
				if err := res.Table.Render(&buf); err != nil {
					w.errs[p] = err
				}
				tables[id] = buf.Bytes()
			}
		}
		w.passMS[p] = float64(time.Since(t0).Nanoseconds()) / 1e6
		root.End()
		for id, b := range tables {
			if prev, ok := want[id]; !ok {
				want[id] = b
			} else if !bytes.Equal(prev, b) && w.errs[p] == nil {
				w.errs[p] = fmt.Errorf("pass %d: %s table differs from an earlier pass", p, id)
			}
		}
	}
	w.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	w.peakRSS = peakRSSBytes()
	w.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	w.gcCycles = m1.NumGC - m0.NumGC
	return w
}

func runExperiments(cfg runConfig) (*result, error) {
	ids := vlsisync.ExperimentIDs()
	setups := make([]float64, expSetupRepeats)
	for r := range setups {
		t0 := time.Now()
		for _, id := range ids {
			if _, err := vlsisync.RunExperimentCtx(context.Background(), id, true); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", id, err)
			}
		}
		setups[r] = time.Since(t0).Seconds()
	}
	want := make(map[string][]byte)
	w := runPasses(cfg, nil, want)
	res := &result{Attempted: cfg.ops, Failed: tally(w.errs)}
	res.Metrics = endToEnd(w.passMS, w.wall.Seconds(), cfg.ops*len(ids), w.peakRSS, setups)
	if cfg.traced {
		tracer := obs.NewTracer()
		tw := runPasses(cfg, tracer, want)
		res.Attempted += cfg.ops
		res.Failed += tally(tw.errs)
		self, err := traceLayers(cfg, tracer)
		if err != nil {
			return nil, err
		}
		res.Metrics, err = perLayer(cfg, self, cfg.ops, map[string]float64{
			"process.alloc_mb_per_op":      float64(w.allocBytes) / 1e6 / float64(cfg.ops),
			"process.gc_cycles":            float64(w.gcCycles),
			"process.tracing_overhead_pct": 100 * (median(tw.passMS)/median(w.passMS) - 1),
		})
		if err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}
