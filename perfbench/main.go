// Command perfbench is the repository benchmark: four named workloads
// that each time a whole unit of work a user sees — a syncd request in
// one of three tiers, or a pass of the paper's experiment suite — check
// every answer, and, in a separate traced run, charge the time to named
// layers. METHODOLOGY.md records the workloads, metrics and bounds.
//
// Usage (from the repository root, via perfbench/run.sh):
//
//	perfbench -workload analyze-cold -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// per-layer ones, and the Chrome trace and per-layer table are written
// under -out. The exit code is non-zero on any wrong answer or broken
// tier guard.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"syscall"

	"repro/internal/stats"
)

// workloadRate is each workload's fixed operation count per second of
// -seconds. A run does identical work whatever the machine's speed, so
// its timed window lasts -seconds only roughly: METHODOLOGY.md gives the
// measured lengths.
var workloadRate = map[string]float64{
	"analyze-cold": 40,
	"analyze-warm": 40,
	"serve-mix":    40,
	"experiments":  1.2,
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: analyze-cold, analyze-warm, serve-mix or experiments")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 10, "run length: the op count is a fixed rate times this")
	trace := flag.Int("trace", 0, "1 for the traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_out", "directory for the traced run's Chrome trace and layer table")
	obscheck := flag.String("obscheck", "", "built cmd/obscheck binary that validates the Chrome trace (required with -trace 1)")
	flag.Parse()

	rate, ok := workloadRate[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload analyze-cold|analyze-warm|serve-mix|experiments, -seconds ≥ 1, -trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, ops: max(1, int(rate*float64(*seconds))),
		traced: *trace == 1, outDir: *out, obscheck: *obscheck,
	}
	if cfg.traced && cfg.obscheck == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -trace 1 needs -obscheck")
		os.Exit(2)
	}
	var res *result
	var err error
	if cfg.workload == "experiments" {
		res, err = runExperiments(cfg)
	} else {
		res, err = runServing(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type runConfig struct {
	workload string
	seed     int64
	ops      int
	traced   bool
	outDir   string
	obscheck string
}

// tally counts failed ops and reports the first few on standard error.
func tally(errs []error) int {
	n := 0
	for _, err := range errs {
		if err != nil {
			if n < 5 {
				fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
			}
			n++
		}
	}
	return n
}

func median(xs []float64) float64 { return stats.Percentiles(xs, 50)[0] }

// peakRSSBytes is the process's high-water resident set size; Linux
// reports ru_maxrss in KiB.
func peakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024
}

// endToEnd builds the end-to-end metric set from one untraced window.
func endToEnd(latMS []float64, wallS float64, ops int, peakRSS int64, setupS []float64) map[string]metric {
	q := stats.Percentiles(latMS, 50, 90)
	return map[string]metric{
		"p50_ms":         {q[0], "ms"},
		"p90_ms":         {q[1], "ms"},
		"throughput_rps": {float64(ops) / wallS, "1/s"},
		"peak_rss_mb":    {float64(peakRSS) / 1e6, "MB"},
		"setup_s":        {median(setupS), "s"},
	}
}
