package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	vlsisync "repro"
	"repro/internal/obs"
)

// layer is one per-layer metric and the end-to-end metric it should move.
type layer struct {
	name, unit, moves string
}

// layers lists every per-layer metric in report order. A "_ms" metric
// whose name is a span name plus "_ms" is that layer's summed self time
// per operation in the traced run.
var layers = func() []layer {
	out := []layer{
		{"comm.build_ms", "ms", "p50_ms on analyze-warm (every request pays it) and analyze-cold"},
		{"comm.graph_json_ms", "ms", "p50_ms on analyze-warm (largest layer there) and analyze-cold"},
		{"comm.pairs_ms", "ms", "p50_ms on analyze-cold"},
		{"clocktree.htree_ms", "ms", "p50_ms on analyze-cold, p90_ms on serve-mix; nothing on analyze-warm"},
		{"skew.kernel_build_ms", "ms", "p50_ms and throughput_rps on analyze-cold"},
		{"skew.analyze_ms", "ms", "p50_ms on analyze-warm"},
		{"skew.guaranteed_ms", "ms", "p50_ms on analyze-warm"},
		{"skew.montecarlo_ms", "ms", "p50_ms on analyze-warm"},
		{"core.plan_ms", "ms", "p90_ms and throughput_rps on serve-mix"},
		{"service.encode_plan_ms", "ms", "p90_ms and throughput_rps on serve-mix"},
		{"clocksim.kernel_build_ms", "ms", "throughput_rps on serve-mix"},
		{"clocksim.regimes_ms", "ms", "throughput_rps on serve-mix"},
		{"hybrid.new_ms", "ms", "throughput_rps on serve-mix"},
		{"hybrid.firing_ms", "ms", "throughput_rps on serve-mix"},
		{"viz.render_ms", "ms", "p50_ms on serve-mix"},
		{"service.encode_ms", "ms", "p50_ms on analyze-warm"},
		{"service.overhead_ms", "ms", "p50_ms on serve-mix and analyze-warm"},
		{"service.hit_p50_ms", "ms", "throughput_rps on serve-mix"},
		{"service.kernel_hit_ratio", "ratio", "peak_rss_mb on analyze-cold"},
		{"service.result_hit_ratio", "ratio", "peak_rss_mb on analyze-cold"},
		{"service.kernel_bytes_mb", "MB", "peak_rss_mb on analyze-cold"},
	}
	for _, id := range vlsisync.ExperimentIDs() {
		out = append(out, layer{"experiments." + id + "_ms", "ms", "p50_ms on experiments"})
	}
	return append(out,
		layer{"process.alloc_mb_per_op", "MB", "peak_rss_mb and p90_ms on every workload"},
		layer{"process.gc_cycles", "count", "peak_rss_mb and p90_ms on every workload"},
		layer{"process.tracing_overhead_pct", "%", "nothing: the traced run's p50_ms against the untraced run's"},
	)
}()

// layerSelfMS returns each layer span's summed self time in ms: its
// duration minus that of the nearest layer spans beneath it. Spans the
// program itself records under a layer span count toward that layer.
func layerSelfMS(doc *obs.TraceDocument) map[string]float64 {
	type span struct {
		parent int64
		layer  string
		ms     float64
	}
	byID := make(map[int64]span)
	for _, ev := range doc.CompleteEvents() {
		id, _ := ev.Args["span_id"].(float64)
		parent, _ := ev.Args["parent_span_id"].(float64)
		name, _ := ev.Args[layerAttr].(string)
		byID[int64(id)] = span{parent: int64(parent), layer: name, ms: ev.Dur / 1e3}
	}
	self := make(map[string]float64)
	for _, s := range byID {
		if s.layer == "" {
			continue
		}
		self[s.layer] += s.ms
		for p, ok := byID[s.parent]; ok; p, ok = byID[p.parent] {
			if p.layer != "" {
				self[p.layer] -= s.ms
				break
			}
		}
	}
	return self
}

// traceLayers writes the tracer's Chrome trace, validates it with
// cmd/obscheck, and returns each layer's self time in ms.
func traceLayers(cfg runConfig, tracer *obs.Tracer) (map[string]float64, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	var buf bytes.Buffer
	if err := tracer.WriteTrace(&buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	out, err := exec.Command(cfg.obscheck, "-trace", path, "-min-categories", "2").CombinedOutput()
	fmt.Fprintf(os.Stderr, "perfbench: obscheck: %s", out)
	if err != nil {
		return nil, fmt.Errorf("obscheck -trace %s: %w", path, err)
	}
	doc, err := obs.ReadTrace(&buf)
	if err != nil {
		return nil, err
	}
	return layerSelfMS(doc), nil
}

// perLayer assembles every per-layer metric: span layers as self time per
// operation, plus the values the workload measured directly in extra.
// Layers the workload never reaches read 0. It also writes the per-layer
// table beside the trace.
func perLayer(cfg runConfig, self map[string]float64, ops int, extra map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(layers))
	var tab strings.Builder
	fmt.Fprintf(&tab, "# %s, seed %d, %d ops\n\n| metric | value | unit | should move |\n|---|---|---|---|\n", cfg.workload, cfg.seed, ops)
	for _, l := range layers {
		v, ok := extra[l.name]
		if !ok {
			v = self[strings.TrimSuffix(l.name, "_ms")] / float64(ops)
		}
		out[l.name] = metric{v, l.unit}
		fmt.Fprintf(&tab, "| %s | %.4f | %s | %s |\n", l.name, v, l.unit, l.moves)
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("layers-%s-seed%d.md", cfg.workload, cfg.seed))
	return out, os.WriteFile(path, []byte(tab.String()), 0o644)
}

// summedLayerMS is the per-operation sum of all span-layer self times.
func summedLayerMS(self map[string]float64, ops int) float64 {
	var sum float64
	for _, v := range self {
		sum += v
	}
	return sum / float64(ops)
}
