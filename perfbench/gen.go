package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"

	"repro/internal/service"
)

// Op is one generated request of a serving workload.
type Op struct {
	Endpoint string // "analyze", "plan", "simulate" or "layout"
	Method   string
	Path     string // URL path, with the query for layouts
	Body     []byte // JSON request body; nil for GET
	// Repeats is the index of the earlier op this one repeats byte for
	// byte (served from the result cache), or -1.
	Repeats int
}

// Recipe-space bounds. A seed picks which meshes run and in what order;
// it never moves these ranges or the share of repeats.
const (
	coldMin, coldMax = 48, 80 // analyze-cold rows and cols
	warmMin, warmMax = 62, 66 // analyze-warm candidate rows and cols
	warmRecipes      = 4      // recipes built during analyze-warm set-up
	mixMin, mixMax   = 24, 56 // serve-mix rows and cols
	mixRepeatEvery   = 5      // every fifth serve-mix request is a repeat
	// mixRepeatWindow bounds how far back a repeat reaches, in distinct
	// requests, so the repeated entry is always still in the result cache
	// (1024 entries by default) however long the run.
	mixRepeatWindow = 160
	// mcTrials is the Monte-Carlo trial count of every analyze request.
	mcTrials = 4
)

// mixEndpoints is serve-mix's rotation over distinct requests. Plans
// come twice as often as simulations and layouts, so that with the
// repeats' fifth the median request falls inside the plans' latency
// range and the 90th percentile inside the simulations' and layouts',
// never on the edge between two endpoints' ranges.
var mixEndpoints = []string{"plan", "simulate", "plan", "layout"}

// mesh is one rows×cols mesh recipe.
type mesh struct{ rows, cols int }

// meshSpace lists every rows×cols mesh with both sides in [lo, hi].
func meshSpace(lo, hi int) []mesh {
	var out []mesh
	for r := lo; r <= hi; r++ {
		for c := lo; c <= hi; c++ {
			out = append(out, mesh{r, c})
		}
	}
	return out
}

// stratifiedOrder is a seeded visiting order of the whole mesh space
// that keeps the size mix of every prefix the same for every seed. The
// space (a square of side meshes per side) is sorted by cell count into
// side blocks of side meshes; each round visits every block once, in a
// seeded order, taking that block's next mesh in a seeded order. So any
// k·side requests hold exactly k meshes of each size block, and a seed
// changes which meshes run and in what order but not how large they are.
func stratifiedOrder(r *rand.Rand, space []mesh) []int {
	side := int(math.Sqrt(float64(len(space))))
	bySize := make([]int, len(space))
	for i := range bySize {
		bySize[i] = i
	}
	sort.SliceStable(bySize, func(a, b int) bool {
		ma, mb := space[bySize[a]], space[bySize[b]]
		return ma.rows*ma.cols < mb.rows*mb.cols
	})
	within := make([][]int, side)
	for b := range within {
		within[b] = r.Perm(side)
	}
	order := make([]int, 0, len(space))
	for round := 0; round < side; round++ {
		for _, b := range r.Perm(side) {
			order = append(order, bySize[b*side+within[b][round]])
		}
	}
	return order
}

// generator derives a serving workload's request sequence from its seed.
// op(i) depends only on (workload, seed, i): the seeded permutations are
// fixed at construction and each op draws from its own RNG.
type generator struct {
	workload string
	seed     int64
	space    []mesh
	// perms holds one seeded stratified order of the mesh space per
	// endpoint, so no two computing requests to one endpoint share a mesh.
	perms map[string][]int
	warm  []mesh // analyze-warm's recipes
}

func newGenerator(workload string, seed int64) (*generator, error) {
	g := &generator{workload: workload, seed: seed, perms: make(map[string][]int)}
	endpoints := []string{"analyze"}
	switch workload {
	case "analyze-cold":
		g.space = meshSpace(coldMin, coldMax)
	case "analyze-warm":
		g.space = meshSpace(warmMin, warmMax)
	case "serve-mix":
		g.space = meshSpace(mixMin, mixMax)
		endpoints = mixEndpoints
	default:
		return nil, fmt.Errorf("no request generator for workload %q", workload)
	}
	for s, e := range endpoints {
		if g.perms[e] == nil {
			g.perms[e] = stratifiedOrder(g.rng(-1-int64(s)), g.space)
		}
	}
	if workload == "analyze-warm" {
		for _, p := range g.perms["analyze"][:warmRecipes] {
			g.warm = append(g.warm, g.space[p])
		}
	}
	return g, nil
}

// slots counts endpoint's slots in the serve-mix rotation, and those
// before slot s.
func slots(endpoint string, s int) (total, before int) {
	for i, e := range mixEndpoints {
		if e == endpoint {
			total++
			if i < s {
				before++
			}
		}
	}
	return total, before
}

// capacity is the most ops the generator can produce while keeping every
// computing request on a recipe not seen before in the run.
func (g *generator) capacity() int {
	switch g.workload {
	case "analyze-cold":
		return len(g.space)
	case "serve-mix":
		cycles := len(g.space)
		for _, e := range mixEndpoints {
			total, _ := slots(e, 0)
			cycles = min(cycles, len(g.space)/total)
		}
		distinct := cycles * len(mixEndpoints)
		return distinct + distinct/(mixRepeatEvery-1)
	}
	return 1 << 30
}

// rng returns the RNG of one draw stream: stream i ≥ 0 is op i's own.
func (g *generator) rng(stream int64) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", g.workload, g.seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

func (g *generator) op(i int) Op {
	r := g.rng(int64(i))
	switch g.workload {
	case "analyze-cold":
		m := g.space[g.perms["analyze"][i]]
		return analyzeOp(m, "linear", 1, 0.1, mcTrials, 1+r.Int63n(1<<31))
	case "analyze-warm":
		m := g.warm[r.Intn(len(g.warm))]
		kinds := []string{"linear", "difference", "summation"}
		ms := []float64{0.5, 1, 2}
		epss := []float64{0.05, 0.1, 0.2}
		// The seed is unique within the run, so every request misses the
		// result cache while its recipe hits the kernel cache.
		seed := int64(i) + 1 + int64(uint16(g.seed))<<32
		return analyzeOp(m, kinds[r.Intn(3)], ms[r.Intn(3)], epss[r.Intn(3)], mcTrials, seed)
	default: // serve-mix
		if i%mixRepeatEvery == mixRepeatEvery-1 {
			// Repeat a distinct request from the recent window.
			n := i - i/mixRepeatEvery // distinct requests before op i
			back := 1 + r.Intn(min(n, mixRepeatWindow))
			j := distinctIndex(n - back)
			op := g.op(j)
			op.Repeats = j
			return op
		}
		n := i - i/mixRepeatEvery
		e := mixEndpoints[n%len(mixEndpoints)]
		total, before := slots(e, n%len(mixEndpoints))
		k := n/len(mixEndpoints)*total + before // ordinal within the endpoint
		m := g.space[g.perms[e][k]]
		// Models and regimes alternate rather than being drawn, so every
		// seed runs the same share of each; the seed decides which meshes
		// they meet.
		switch e {
		case "plan":
			return planOp(m, []string{"difference", "summation"}[k%2])
		case "simulate":
			return simulateOp(m, []string{"nominal", "random"}[k%2], 1+r.Int63n(1<<31))
		default:
			return layoutOp(m)
		}
	}
}

// distinctIndex maps the n-th distinct serve-mix request to its op index.
func distinctIndex(n int) int { return n + n/(mixRepeatEvery-1) }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs always encode
	}
	return b
}

func topology(m mesh) service.GraphInput {
	return service.GraphInput{Topology: &service.TopologySpec{Kind: "mesh", Rows: m.rows, Cols: m.cols}}
}

// analyzeOp spells out every field the server would otherwise default, so
// the replay can read the request without the server's defaulting rules.
func analyzeOp(m mesh, model string, mm, eps float64, trials int, seed int64) Op {
	req := service.AnalyzeRequest{
		GraphInput:       topology(m),
		Trees:            []string{"htree"},
		Model:            service.ModelSpec{Kind: model, M: mm, Eps: eps},
		MonteCarloTrials: trials,
		Seed:             seed,
	}
	return Op{Endpoint: "analyze", Method: "POST", Path: "/v1/analyze", Body: mustJSON(req), Repeats: -1}
}

func planOp(m mesh, model string) Op {
	req := service.PlanRequest{
		GraphInput: topology(m), Model: model,
		M: 1, Eps: 0.1, Delta: 2, BufferSpacing: 1,
	}
	return Op{Endpoint: "plan", Method: "POST", Path: "/v1/plan", Body: mustJSON(req), Repeats: -1}
}

// simulateOp is a two-config batch: one clocksim regime and one hybrid
// handshake run over the same mesh.
func simulateOp(m mesh, regime string, seed int64) Op {
	req := service.SimulateRequest{
		GraphInput: topology(m),
		Configs: []service.SimulateConfig{
			{Mode: "clock", Tree: "htree", Regime: regime, Trials: 4, Seed: seed,
				Params: service.ClockParamsSpec{M: 1, Eps: 0.1}},
			{Mode: "hybrid",
				Hybrid: &service.HybridSpec{ElementSize: 4, Handshake: 1, CellDelay: 2, HoldDelay: 0.5, Waves: 32}},
		},
	}
	return Op{Endpoint: "simulate", Method: "POST", Path: "/v1/simulate", Body: mustJSON(req), Repeats: -1}
}

func layoutOp(m mesh) Op {
	q := url.Values{}
	q.Set("kind", "mesh")
	q.Set("rows", strconv.Itoa(m.rows))
	q.Set("cols", strconv.Itoa(m.cols))
	q.Set("tree", "htree")
	return Op{Endpoint: "layout", Method: "GET", Path: "/v1/layout.svg?" + q.Encode(), Repeats: -1}
}
