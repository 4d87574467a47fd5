package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"runtime"
	"strconv"

	"repro/internal/clocksim"
	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/skew"
	"repro/internal/stats"
	"repro/internal/viz"
)

// layerAttr marks the benchmark's own layer spans, so self time is
// charged to them and not to spans the program records underneath.
const layerAttr = "bench_layer"

// timed runs f inside a layer span named name (a no-op span when ctx
// carries no tracer).
func timed[T any](ctx context.Context, name string, f func() (T, error)) (T, error) {
	_, span := obs.Start(ctx, name, obs.String(layerAttr, name))
	defer span.End()
	return f()
}

// replayer recomputes a request's answer by calling the public functions
// the handler calls, with the same inputs, each inside a layer span. The
// calls mirror the request's tier: with a kernel the server holds warm,
// the tree and kernel build are skipped just as the server skips them.
type replayer struct {
	workers int
	// kernels holds the analyze-warm recipes' kernels, built at set-up
	// like the server's warm kernel cache.
	kernels map[mesh]*skew.Kernel
}

func newReplayer() *replayer {
	return &replayer{workers: runtime.GOMAXPROCS(0), kernels: make(map[mesh]*skew.Kernel)}
}

// check compares the body of ops[i] against its recomputed answer. A
// repeat is checked against the answer of the op it repeats, and
// recomputes nothing: the server serves it from the result cache.
func (rp *replayer) check(ctx context.Context, ops []Op, i int, bodies [][]byte) error {
	op := ops[i]
	if op.Repeats >= 0 {
		if !bytes.Equal(bodies[i], bodies[op.Repeats]) {
			return fmt.Errorf("op %d: repeat of op %d returned different bytes", i, op.Repeats)
		}
		return nil
	}
	want, err := rp.expect(ctx, op)
	if err != nil {
		return fmt.Errorf("op %d: replay: %w", i, err)
	}
	if !bytes.Equal(bodies[i], want) {
		return fmt.Errorf("op %d (%s %s): response differs from the library's answer", i, op.Method, op.Path)
	}
	return nil
}

// expect returns the response body the server must send for op.
func (rp *replayer) expect(ctx context.Context, op Op) ([]byte, error) {
	switch op.Endpoint {
	case "analyze":
		var req service.AnalyzeRequest
		if err := json.Unmarshal(op.Body, &req); err != nil {
			return nil, err
		}
		return rp.analyze(ctx, &req)
	case "plan":
		var req service.PlanRequest
		if err := json.Unmarshal(op.Body, &req); err != nil {
			return nil, err
		}
		return rp.plan(ctx, &req)
	case "simulate":
		var req service.SimulateRequest
		if err := json.Unmarshal(op.Body, &req); err != nil {
			return nil, err
		}
		return rp.simulate(ctx, &req)
	case "layout":
		u, err := url.Parse(op.Path)
		if err != nil {
			return nil, err
		}
		return rp.layout(ctx, u.Query())
	}
	return nil, fmt.Errorf("unknown endpoint %q", op.Endpoint)
}

func buildGraph(ctx context.Context, t *service.TopologySpec) (*comm.Graph, error) {
	return timed(ctx, "comm.build", func() (*comm.Graph, error) {
		return comm.Build(t.Kind, t.N, t.Rows, t.Cols)
	})
}

// kernelKey and hybridSystemKey have the JSON shape of the server's
// kernel-cache keys: encoding one marshals the whole built graph, which
// is what every kernel lookup pays today.
type kernelKey struct {
	Graph    *comm.Graph `json:"graph"`
	Tree     string      `json:"tree"`
	Equalize bool        `json:"equalize,omitempty"`
	Spacing  float64     `json:"spacing,omitempty"`
}

type hybridSystemKey struct {
	Graph       *comm.Graph `json:"graph"`
	ElementSize float64     `json:"element_size"`
}

func graphKey(ctx context.Context, key any) error {
	_, err := timed(ctx, "comm.graph_json", func() ([]byte, error) { return json.Marshal(key) })
	return err
}

// buildKernel is the kernel-cache miss path: H-tree, pair enumeration on
// the fresh graph, then the kernel itself.
func buildKernel(ctx context.Context, g *comm.Graph) (*skew.Kernel, error) {
	tree, err := timed(ctx, "clocktree.htree", func() (*clocktree.Tree, error) { return clocktree.HTree(g) })
	if err != nil {
		return nil, err
	}
	if _, err := timed(ctx, "comm.pairs", func() ([][2]comm.CellID, error) { return g.CommunicatingPairs(), nil }); err != nil {
		return nil, err
	}
	return timed(ctx, "skew.kernel_build", func() (*skew.Kernel, error) {
		return skew.NewKernelWithLimits(g, tree, skew.Limits{})
	})
}

// skewModel builds the model a service.ModelSpec names, as the handler does.
func skewModel(m service.ModelSpec) (skew.Model, error) {
	switch m.Kind {
	case "difference":
		return skew.Difference{F: func(d float64) float64 { return m.M * d }}, nil
	case "summation":
		return skew.Summation{G: func(s float64) float64 { return m.Eps * s }, Beta: m.Eps}, nil
	case "linear":
		return skew.Linear{M: m.M, Eps: m.Eps}, nil
	}
	return nil, fmt.Errorf("unknown skew model %q", m.Kind)
}

func encode(ctx context.Context, v any) ([]byte, error) {
	return timed(ctx, "service.encode", func() ([]byte, error) {
		b, err := json.MarshalIndent(v, "", "  ")
		return append(b, '\n'), err
	})
}

func (rp *replayer) analyze(ctx context.Context, req *service.AnalyzeRequest) ([]byte, error) {
	if len(req.Trees) != 1 || req.Trees[0] != "htree" || req.Topology == nil {
		return nil, fmt.Errorf("replay covers single-htree topology requests only")
	}
	g, err := buildGraph(ctx, req.Topology)
	if err != nil {
		return nil, err
	}
	if err := graphKey(ctx, &kernelKey{Graph: g, Tree: "htree"}); err != nil {
		return nil, err
	}
	k := rp.kernels[mesh{req.Topology.Rows, req.Topology.Cols}]
	if k == nil {
		if k, err = buildKernel(ctx, g); err != nil {
			return nil, err
		}
	}
	model, err := skewModel(req.Model)
	if err != nil {
		return nil, err
	}
	a, _ := timed(ctx, "skew.analyze", func() (skew.Analysis, error) { return k.Analyze(model), nil })
	guaranteed, _ := timed(ctx, "skew.guaranteed", func() (float64, error) { return k.GuaranteedMinSkew(model), nil })
	mc, err := timed(ctx, "skew.montecarlo", func() (float64, error) {
		return k.MonteCarloParallel(ctx, rp.workers, skew.Linear{M: req.Model.M, Eps: req.Model.Eps},
			req.MonteCarloTrials, stats.NewRNG(req.Seed))
	})
	if err != nil {
		return nil, err
	}
	tree := k.Tree()
	return encode(ctx, service.AnalyzeResponse{
		Graph: g.Name, Cells: g.NumCells(), Model: model.Name(),
		Results: []service.TreeAnalysis{{
			Tree:              req.Trees[0],
			Nodes:             tree.NumNodes(),
			Buffers:           tree.BufferCount(),
			TotalWireLength:   tree.TotalWireLength(),
			MaxSkew:           a.MaxSkew,
			WorstPair:         [2]int{int(a.WorstPair.A), int(a.WorstPair.B)},
			MaxD:              a.MaxD,
			MaxS:              a.MaxS,
			Pairs:             a.Pairs,
			GuaranteedMinSkew: guaranteed,
			MonteCarloMaxSkew: mc,
		}},
	})
}

func (rp *replayer) plan(ctx context.Context, req *service.PlanRequest) ([]byte, error) {
	g, err := buildGraph(ctx, req.Topology)
	if err != nil {
		return nil, err
	}
	p, err := timed(ctx, "core.plan", func() (*core.Plan, error) { return core.NewPlan(g, req.Assumptions()) })
	if err != nil {
		return nil, err
	}
	return timed(ctx, "service.encode_plan", func() ([]byte, error) {
		var buf bytes.Buffer
		err := service.EncodePlan(&buf, p)
		return buf.Bytes(), err
	})
}

// simulate mirrors the batch handler for one clock config followed by one
// hybrid config: a warm-up pass that builds each engine once (clocksim
// kernel over the skew kernel's tree, hybrid system), then one pass per
// config that looks the engine up again. Each lookup encodes its key.
func (rp *replayer) simulate(ctx context.Context, req *service.SimulateRequest) ([]byte, error) {
	if len(req.Configs) != 2 || req.Configs[0].Mode != "clock" || req.Configs[1].Mode != "hybrid" || req.Topology == nil {
		return nil, fmt.Errorf("replay covers [clock, hybrid] batches only")
	}
	cc, hc := req.Configs[0], req.Configs[1]
	g, err := buildGraph(ctx, req.Topology)
	if err != nil {
		return nil, err
	}
	kk := &kernelKey{Graph: g, Tree: cc.Tree}
	hk := &hybridSystemKey{Graph: g, ElementSize: hc.Hybrid.ElementSize}
	// Warm-up: clocksim-kernel miss, skew-kernel miss, hybrid-system miss.
	for _, key := range []any{kk, kk} {
		if err := graphKey(ctx, key); err != nil {
			return nil, err
		}
	}
	sk, err := buildKernel(ctx, g)
	if err != nil {
		return nil, err
	}
	ck, err := timed(ctx, "clocksim.kernel_build", func() (*clocksim.Kernel, error) { return clocksim.NewKernel(g, sk.Tree()) })
	if err != nil {
		return nil, err
	}
	if err := graphKey(ctx, hk); err != nil {
		return nil, err
	}
	h := hc.Hybrid
	hcfg := hybrid.Config{ElementSize: h.ElementSize, Handshake: h.Handshake,
		LocalDistribution: h.LocalDistribution, CellDelay: h.CellDelay, HoldDelay: h.HoldDelay}
	sys, err := timed(ctx, "hybrid.new", func() (*hybrid.System, error) { return hybrid.New(g, hcfg) })
	if err != nil {
		return nil, err
	}

	// Per-config pass: both lookups hit.
	if err := graphKey(ctx, kk); err != nil {
		return nil, err
	}
	p := clocksim.Params{M: cc.Params.M, Eps: cc.Params.Eps, BufferDelay: cc.Params.BufferDelay,
		MinSeparation: cc.Params.MinSeparation, RiseFallBias: cc.Params.RiseFallBias}
	clock, err := timed(ctx, "clocksim.regimes", func() (*service.SimulateResponse, error) {
		rng := stats.NewRNG(cc.Seed)
		vals := make([]float64, cc.Trials)
		for i := range vals {
			var err error
			switch cc.Regime {
			case "nominal":
				vals[i], err = ck.NominalSkew(p)
			case "random":
				vals[i], err = ck.RandomSkew(p, rng.Fork(int64(i)))
			default:
				err = fmt.Errorf("replay covers nominal and random regimes only, got %q", cc.Regime)
			}
			if err != nil {
				return nil, err
			}
		}
		s := stats.Summarize(vals)
		return &service.SimulateResponse{
			Graph: g.Name, Cells: g.NumCells(), Mode: "clock",
			Tree: ck.Tree().Name, Regime: cc.Regime, Trials: cc.Trials,
			CommSkew: &service.SummaryJSON{N: s.N, Mean: s.Mean, Std: s.Std, Min: s.Min,
				P50: s.P50, P90: s.P90, P99: s.P99, Max: s.Max},
			MaxEventDrift: ck.MaxEventDrift(p),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	if err := graphKey(ctx, hk); err != nil {
		return nil, err
	}
	hyb, err := timed(ctx, "hybrid.firing", func() (*service.SimulateResponse, error) {
		s, err := sys.WithConfig(hcfg)
		if err != nil {
			return nil, err
		}
		times, err := s.SimulateHandshakeFaulty(h.Waves, nil)
		if err != nil {
			return nil, err
		}
		last := times[len(times)-1]
		return &service.SimulateResponse{
			Graph: g.Name, Cells: g.NumCells(), Mode: "hybrid",
			Hybrid: &service.HybridSimJSON{
				Elements: s.NumElements(), MaxElementCells: s.MaxElementCells(), Waves: h.Waves,
				WaveCost: hcfg.WaveCost(), CycleTime: s.CycleTime(h.Waves),
				LastWaveSpread: stats.Max(last) - stats.Min(last),
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return encode(ctx, service.SimulateBatchResponse{
		Graph: g.Name, Cells: g.NumCells(), Configs: 2,
		Results: []service.SimulateBatchItem{{Index: 0, Result: clock}, {Index: 1, Result: hyb}},
	})
}

func (rp *replayer) layout(ctx context.Context, q url.Values) ([]byte, error) {
	rows, err1 := strconv.Atoi(q.Get("rows"))
	cols, err2 := strconv.Atoi(q.Get("cols"))
	if err1 != nil || err2 != nil || q.Get("tree") != "htree" {
		return nil, fmt.Errorf("replay covers htree mesh layouts only")
	}
	g, err := buildGraph(ctx, &service.TopologySpec{Kind: q.Get("kind"), Rows: rows, Cols: cols})
	if err != nil {
		return nil, err
	}
	tree, err := timed(ctx, "clocktree.htree", func() (*clocktree.Tree, error) { return clocktree.HTree(g) })
	if err != nil {
		return nil, err
	}
	return timed(ctx, "viz.render", func() ([]byte, error) {
		var buf bytes.Buffer
		err := viz.RenderGraphWithClock(&buf, g, tree, q.Get("caption"))
		return buf.Bytes(), err
	})
}
