package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/stats"
)

// warmupOps are the requests a set-up sends after starting the server.
// They lie outside the timed sequence's recipes and result keys, so the
// tier guards over the window are unaffected.
func warmupOps(g *generator) []Op {
	switch g.workload {
	case "analyze-warm":
		// Build each recipe's kernel; zero trials keeps these result keys
		// apart from the timed requests'.
		var ops []Op
		for _, m := range g.warm {
			ops = append(ops, analyzeOp(m, "linear", 1, 0.1, 0, 1))
		}
		return ops
	case "serve-mix":
		small := mesh{8, 8}
		return []Op{planOp(small, "summation"), simulateOp(small, "nominal", 1), layoutOp(small)}
	default:
		return []Op{analyzeOp(mesh{16, 16}, "linear", 1, 0.1, mcTrials, 1)}
	}
}

// setUp starts a server and sends the warm-up requests.
func setUp(tracer *obs.Tracer, warm []Op) (*harness, error) {
	h, err := startServer(tracer)
	if err != nil {
		return nil, err
	}
	for _, op := range warm {
		if _, _, err := h.do(context.Background(), op, ""); err != nil {
			h.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return h, nil
}

// failures counts a checked window's failed ops. A window that breaks
// its tier fails as a whole.
func failures(workload string, w *window, ops []Op) int {
	if err := tierGuard(workload, w, ops); err != nil {
		tally([]error{err})
		return len(ops)
	}
	return tally(w.errs)
}

// tierGuard checks the /metrics deltas over a window against the tier
// the workload claims to measure.
func tierGuard(workload string, w *window, ops []Op) error {
	d := w.delta
	switch workload {
	case "analyze-warm":
		if d["kernel_cache_misses"] != 0 || d["cache_hits"] != 0 {
			return fmt.Errorf("tier guard: analyze-warm saw %v kernel misses and %v result hits, want 0 and 0",
				d["kernel_cache_misses"], d["cache_hits"])
		}
	case "analyze-cold":
		if d["kernel_cache_hits"] != 0 {
			return fmt.Errorf("tier guard: analyze-cold saw %v kernel hits, want 0", d["kernel_cache_hits"])
		}
	case "serve-mix":
		if want := float64(len(ops) / mixRepeatEvery); d["cache_hits"] != want {
			return fmt.Errorf("tier guard: serve-mix saw %v result hits, want %v", d["cache_hits"], want)
		}
	}
	return nil
}

// checkAll replays every op of an untraced window on all CPUs and records
// each mismatch as that op's error.
func checkAll(rp *replayer, ops []Op, w *window) {
	var wg sync.WaitGroup
	next := make(chan int)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if w.errs[i] == nil {
					w.errs[i] = rp.check(context.Background(), ops, i, w.bodies)
				}
			}
		}()
	}
	for i := range ops {
		next <- i
	}
	close(next)
	wg.Wait()
}

// measure sets up repeats times, keeping the last server, runs the window
// on it and stops it. It also returns each set-up's duration in seconds.
func measure(tracer *obs.Tracer, rp *replayer, warm, ops []Op, repeats int) (*window, []float64, error) {
	setups := make([]float64, repeats)
	var h *harness
	for r := range setups {
		if h != nil {
			if err := h.close(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if h, err = setUp(tracer, warm); err != nil {
			return nil, nil, err
		}
		setups[r] = time.Since(t0).Seconds()
	}
	w, err := h.run(ops, tracer, rp)
	if cerr := h.close(); err == nil {
		err = cerr
	}
	return w, setups, err
}

func runServing(cfg runConfig) (*result, error) {
	gen, err := newGenerator(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.ops > gen.capacity() {
		return nil, fmt.Errorf("%s holds at most %d requests without reusing a recipe; lower -seconds", cfg.workload, gen.capacity())
	}
	ops := make([]Op, cfg.ops)
	for i := range ops {
		ops[i] = gen.op(i)
	}
	warm := warmupOps(gen)
	rp := newReplayer()
	for _, m := range gen.warm {
		g, err := comm.Build("mesh", 0, m.rows, m.cols)
		if err != nil {
			return nil, err
		}
		if rp.kernels[m], err = buildKernel(context.Background(), g); err != nil {
			return nil, err
		}
	}

	// The server is out of scope once measure returns, so the check below
	// does not run beside its full caches.
	w, setups, err := measure(nil, nil, warm, ops, setupRepeats)
	if err != nil {
		return nil, err
	}
	checkAll(rp, ops, w)
	res := &result{Attempted: len(ops), Failed: failures(cfg.workload, w, ops)}
	res.Metrics = endToEnd(w.latMS, w.wall.Seconds(), len(ops), w.peakRSS, setups)
	if cfg.traced {
		if err := tracedServing(cfg, rp, warm, ops, w, res); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// tracedServing repeats the window on a fresh server with tracing on,
// replaying each op's library calls under its root span, and replaces
// res.Metrics with the per-layer metrics. untraced is the run's untraced
// window, the base of the overhead, hit-latency and process metrics.
func tracedServing(cfg runConfig, rp *replayer, warm, ops []Op, untraced *window, res *result) error {
	tracer := obs.NewTracer()
	w, _, err := measure(tracer, rp, warm, ops, 1)
	if err != nil {
		return err
	}
	res.Attempted += len(ops)
	res.Failed += failures(cfg.workload, w, ops)
	self, err := traceLayers(cfg, tracer)
	if err != nil {
		return err
	}
	var hits []float64
	for i, c := range untraced.cache {
		if c == "hit" {
			hits = append(hits, untraced.latMS[i])
		}
	}
	hitP50 := 0.0
	if len(hits) > 0 {
		hitP50 = median(hits)
	}
	n := float64(len(ops))
	d := w.delta
	res.Metrics, err = perLayer(cfg, self, len(ops), map[string]float64{
		"service.overhead_ms":          stats.Mean(untraced.latMS) - summedLayerMS(self, len(ops)),
		"service.hit_p50_ms":           hitP50,
		"service.kernel_hit_ratio":     ratio(d["kernel_cache_hits"], d["kernel_cache_hits"]+d["kernel_cache_misses"]),
		"service.result_hit_ratio":     ratio(d["cache_hits"], d["cache_hits"]+d["cache_misses"]+d["coalesced"]),
		"service.kernel_bytes_mb":      w.kernelBytes / 1e6,
		"process.alloc_mb_per_op":      float64(untraced.allocBytes) / 1e6 / n,
		"process.gc_cycles":            float64(untraced.gcCycles),
		"process.tracing_overhead_pct": 100 * (median(w.latMS)/median(untraced.latMS) - 1),
	})
	return err
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
