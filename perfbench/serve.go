package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/service"
)

// harness is one in-process syncd: service.NewServer with syncd's
// defaults and logging off, on a loopback listener, driven by one client
// over one keep-alive connection.
type harness struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// startServer starts a server; tracer, when non-nil, is passed through
// service.Config.Tracer so the server's own spans land in the same trace.
func startServer(tracer *obs.Tracer) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	// The same Config cmd/syncd builds from its flag defaults.
	srv := service.NewServer(service.Config{Jobs: jobs.Config{MaxJobs: 64}, Tracer: tracer})
	h := &harness{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
			DisableCompression: true,
		}},
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	if _, _, err := h.do(context.Background(), Op{Method: "GET", Path: "/healthz"}, ""); err != nil {
		h.close()
		return nil, fmt.Errorf("health check: %w", err)
	}
	return h, nil
}

// close stops the server and waits for its serve loop to return.
func (h *harness) close() error {
	h.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.srv.Close()
	return err
}

// do sends op and reads the whole response. A non-200 status is an error.
// traceHeader, when not empty, parents the server's spans under the
// caller's.
func (h *harness) do(ctx context.Context, op Op, traceHeader string) (cache string, body []byte, err error) {
	var rd io.Reader
	if op.Body != nil {
		rd = bytes.NewReader(op.Body)
	}
	req, err := http.NewRequestWithContext(ctx, op.Method, h.base+op.Path, rd)
	if err != nil {
		return "", nil, err
	}
	if op.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceHeader != "" {
		req.Header.Set(obs.TraceHeader, traceHeader)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return "", nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", body, fmt.Errorf("%s %s: status %d: %s", op.Method, op.Path, resp.StatusCode, body)
	}
	return resp.Header.Get("X-Cache"), body, nil
}

// counters reads the numeric fields of GET /metrics.
func (h *harness) counters() (map[string]float64, error) {
	_, body, err := h.do(context.Background(), Op{Method: "GET", Path: "/metrics"}, "")
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	out := make(map[string]float64)
	for k, v := range doc {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// window is one closed-loop pass over a fixed op sequence.
type window struct {
	latMS  []float64
	cache  []string
	bodies [][]byte
	errs   []error
	wall   time.Duration
	// delta holds the /metrics counter deltas over the window, and
	// kernelBytes the kernel_bytes_in_use gauge at its end.
	delta       map[string]float64
	kernelBytes float64
	allocBytes  uint64
	gcCycles    uint32
	peakRSS     int64
}

// run sends ops one at a time, each after the previous response has been
// read in full. With a tracer, every op runs under a root span whose
// context rides the request's trace header, and after the response the
// replay re-runs the op's library calls under the same root, so all spans
// of one operation share a trace ID.
func (h *harness) run(ops []Op, tracer *obs.Tracer, rp *replayer) (*window, error) {
	w := &window{
		latMS:  make([]float64, len(ops)),
		cache:  make([]string, len(ops)),
		bodies: make([][]byte, len(ops)),
		errs:   make([]error, len(ops)),
	}
	before, err := h.counters()
	if err != nil {
		return nil, err
	}
	// Start every window from the same heap state, whatever set-up left.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ctx := obs.WithTracer(context.Background(), tracer)
	start := time.Now()
	for i, op := range ops {
		opCtx, root := obs.Start(ctx, "bench.op", obs.String("endpoint", op.Endpoint), obs.Int("op", int64(i)))
		var hdr string
		if root != nil {
			hdr = root.Context().String()
		}
		t0 := time.Now()
		w.cache[i], w.bodies[i], w.errs[i] = h.do(opCtx, op, hdr)
		w.latMS[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		if tracer != nil && w.errs[i] == nil {
			w.errs[i] = rp.check(opCtx, ops, i, w.bodies)
		}
		root.End()
	}
	w.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	w.peakRSS = peakRSSBytes()
	w.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	w.gcCycles = m1.NumGC - m0.NumGC
	after, err := h.counters()
	if err != nil {
		return nil, err
	}
	w.delta = make(map[string]float64)
	for k, v := range after {
		w.delta[k] = v - before[k]
	}
	w.kernelBytes = after["kernel_bytes_in_use"]
	return w, nil
}
