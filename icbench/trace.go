package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"ictm/internal/estimation"
	"ictm/internal/linalg"
	"ictm/internal/tm"
)

// span is one call into a layer: its name, its interval (nanoseconds
// since the tracer started), the span that caused it and the request it
// belongs to. Replays run after their parent returns, so a parent's
// self time is its duration minus its children's durations.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an outer operation
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write stores them at the end of a run.
type tracer struct {
	t0    time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) newReq() int { tr.reqs++; return tr.reqs }

func (tr *tracer) begin(name string, parent, req int) int {
	tr.spans = append(tr.spans, span{ID: len(tr.spans), Parent: parent, Req: req, Name: name, Start: int64(time.Since(tr.t0))})
	return len(tr.spans) - 1
}

// end closes a span and returns its duration in milliseconds.
func (tr *tracer) end(id int) float64 {
	tr.spans[id].End = int64(time.Since(tr.t0))
	return float64(tr.spans[id].End-tr.spans[id].Start) / 1e6
}

func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// countingCSR wraps the routing CSR for an LSQR replay: it forwards
// every product unchanged and counts and times the passes.
type countingCSR struct {
	a      *linalg.Sparse
	passes int
	busy   time.Duration
}

func (c *countingCSR) Rows() int { return c.a.Rows() }
func (c *countingCSR) Cols() int { return c.a.Cols() }

func (c *countingCSR) MulVecTo(dst, x []float64) {
	t0 := time.Now()
	c.a.MulVecTo(dst, x)
	c.busy += time.Since(t0)
	c.passes++
}

func (c *countingCSR) TMulVecTo(dst, x []float64) {
	t0 := time.Now()
	c.a.TMulVecTo(dst, x)
	c.busy += time.Since(t0)
	c.passes++
}

// bytesPerPass is the computed traffic of one CSR product: values and
// column indices (8 bytes each per nonzero), the row pointers, and one
// read or write of each input and output element.
func bytesPerPass(a *linalg.Sparse) float64 {
	return float64(16*a.NNZ() + 8*(a.Rows()+1) + 8*(a.Rows()+a.Cols()))
}

// layerAcc accumulates the per-layer figures of a traced run.
type layerAcc struct {
	socketSelfMS, httpSelfMS []float64 // per request
	responseBytes            int
	engineSelfMS             float64
	engineAllocs             uint64
	engineBins               int // bins replayed through the engine
	patchEngineMS            []float64
	patchRoutingMS, rebaseMS []float64
	priorMS, projMS, ipfMS   float64
	ipfSweeps                int
	stageBins                int
	lsqrMS                   float64
	lsqrIters, lsqrBins      int
	passes                   int
	passBusy                 time.Duration
	passBytes                float64
	buildS, warmOpenMS       []float64
	// failed names the layers whose replay did not match the outer call
	// bitwise (or whose LSQR count differed); their numbers are dropped.
	failed map[string]string
}

func newLayerAcc() *layerAcc { return &layerAcc{failed: map[string]string{}} }

func (a *layerAcc) fail(layer, format string, args ...any) {
	if _, ok := a.failed[layer]; !ok {
		a.failed[layer] = fmt.Sprintf(format, args...)
	}
}

// replayBin replays one bin at the estimation layers under parent:
// Estimator.EstimateBin, then its stages (PriorFor, the projection,
// clamp + IPF), then linalg.LSQR over the counting CSR. Each replay must
// match the call above it bitwise; want is the estimate the outer call
// returned. It returns the LSQR iterations the replay counted and the
// duration of the EstimateBin replay.
func (a *layerAcc) replayBin(tr *tracer, parent, req int, st *topoState, t int, y, want []float64) (iters int, binMS float64) {
	sb := tr.begin("estimation.bin", parent, req)
	x, diag, err := st.est.EstimateBin(st.prior, t, y)
	binMS = tr.end(sb)
	if err != nil {
		a.fail("estimation", "EstimateBin bin %d: %v", t, err)
		return 0, binMS
	}
	if !bitsEqual(x.Vec(), want) {
		a.fail("estimation", "EstimateBin bin %d differs from the outer call", t)
	}

	rm := st.rm
	var keep []bool
	dropped := 0
	for i := 0; i < rm.L; i++ {
		if math.IsNaN(y[i]) {
			if keep == nil {
				keep = make([]bool, len(y))
				for j := range keep {
					keep[j] = true
				}
			}
			keep[i] = false
			dropped++
		}
	}
	_, ing, eg, err := rm.SplitLoads(y)
	if err != nil {
		a.fail("estimation", "SplitLoads: %v", err)
		return 0, binMS
	}
	sp := tr.begin("estimation.prior", sb, req)
	p, err := st.prior.PriorFor(t, ing, eg)
	priorMS := tr.end(sp)
	if err != nil {
		a.fail("estimation", "PriorFor bin %d: %v", t, err)
		return 0, binMS
	}
	sj := tr.begin("estimation.projection", sb, req)
	var proj *tm.TrafficMatrix
	stalled := false
	fallback := dropped > 0 && float64(rm.L-dropped) < estimation.ObservabilityFloor*float64(rm.L)
	switch {
	case fallback:
		proj = p.Clone()
	case dropped > 0:
		proj, stalled, iters, err = st.est.Solver().ProjectMaskedReport(p, y, keep)
	default:
		proj, stalled, iters, err = st.est.Solver().ProjectReport(p, y)
	}
	projMS := tr.end(sj)
	if err != nil {
		a.fail("estimation", "projection bin %d: %v", t, err)
		return 0, binMS
	}
	projected := append([]float64(nil), proj.Vec()...)
	si := tr.begin("estimation.ipf", sb, req)
	proj.ClampNonNegative()
	sweeps, err := estimation.IPF(proj, ing, eg, 0, 0)
	ipfMS := tr.end(si)
	if err != nil && !errors.Is(err, estimation.ErrIPFNoConverge) {
		a.fail("estimation", "IPF bin %d: %v", t, err)
		return 0, binMS
	}
	if !bitsEqual(proj.Vec(), x.Vec()) || sweeps != diag.IPFSweeps || iters != diag.LSQRIterations {
		a.fail("estimation", "stage replay of bin %d differs from EstimateBin", t)
	}
	a.priorMS += priorMS
	a.projMS += projMS
	a.ipfMS += ipfMS
	a.ipfSweeps += sweeps
	a.stageBins++
	_ = binMS
	if fallback {
		return 0, binMS
	}

	// LSQR over the counting CSR, on the residual the projection solves.
	csr := rm.CSR()
	res := make([]float64, len(y))
	rp := make([]float64, len(y))
	csr.MulVecTo(rp, p.Vec())
	for i, v := range y {
		if keep != nil && !keep[i] {
			v = 0
		}
		res[i] = v - rp[i]
		if keep != nil && !keep[i] {
			res[i] = 0
		}
	}
	cnt := &countingCSR{a: csr}
	var op linalg.Op = cnt
	if keep != nil {
		op = linalg.NewRowMasked(cnt, keep)
	}
	sl := tr.begin("linalg.lsqr", sj, req)
	z, rep, err := linalg.LSQR(op, res, linalg.LSQROptions{})
	lsqrMS := tr.end(sl)
	if err != nil {
		a.fail("lsqr", "LSQR bin %d: %v", t, err)
		return 0, binMS
	}
	out := p.Clone()
	ov := out.Vec()
	for i := range ov {
		ov[i] += z[i]
	}
	if rep.Iterations != iters {
		a.fail("lsqr", "bin %d: replayed LSQR took %d iterations, the program reported %d", t, rep.Iterations, iters)
	}
	if !stalled && !bitsEqual(ov, projected) {
		a.fail("lsqr", "bin %d: replayed LSQR correction differs from the projection", t)
	}
	a.lsqrMS += lsqrMS
	a.lsqrIters += rep.Iterations
	a.lsqrBins++
	a.passes += cnt.passes
	a.passBusy += cnt.busy
	a.passBytes += float64(cnt.passes) * bytesPerPass(csr)
	return rep.Iterations, binMS
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// perLayer turns the accumulated replays into the per-layer metrics.
// Figures of a layer the workload does not pass through are 0; figures
// of a layer whose replay failed are left out.
func (a *layerAcc) perLayer(memGBps float64) map[string]metric {
	div := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	m := map[string]metric{
		"socket.overhead_ms_p50":           {p50(a.socketSelfMS), "ms"},
		"http.self_ms_p50":                 {p50(a.httpSelfMS), "ms"},
		"http.response_bytes_per_bin":      {div(float64(a.responseBytes), a.engineBins), "bytes"},
		"engine.self_ms_per_bin":           {div(a.engineSelfMS, a.engineBins), "ms"},
		"engine.allocs_per_bin":            {div(float64(a.engineAllocs), a.engineBins), "count"},
		"engine.patch_ms_p50":              {p50(a.patchEngineMS), "ms"},
		"store.warm_open_ms":               {p50(a.warmOpenMS), "ms"},
		"routing.build_s":                  {p50(a.buildS), "s"},
		"routing.patch_ms_p50":             {p50(a.patchRoutingMS), "ms"},
		"estimation.rebase_ms_p50":         {p50(a.rebaseMS), "ms"},
		"estimation.prior_ms_per_bin":      {div(a.priorMS, a.stageBins), "ms"},
		"estimation.projection_ms_per_bin": {div(a.projMS, a.stageBins), "ms"},
		"estimation.ipf_ms_per_bin":        {div(a.ipfMS, a.stageBins), "ms"},
		"estimation.ipf_sweeps_per_bin":    {div(float64(a.ipfSweeps), a.stageBins), "count"},
		"lsqr.iterations_per_bin":          {div(float64(a.lsqrIters), a.lsqrBins), "count"},
		"lsqr.ms_per_iteration":            {div(a.lsqrMS, a.lsqrIters), "ms"},
		"csr.passes_per_bin":               {div(float64(a.passes), a.lsqrBins), "count"},
		"csr.ms_per_pass":                  {div(float64(a.passBusy)/1e6, a.passes), "ms"},
		"memcopy.gb_per_s":                 {memGBps, "GB/s"},
	}
	if a.passBusy > 0 {
		m["csr.computed_gb_per_s"] = metric{a.passBytes / a.passBusy.Seconds() / 1e9, "GB/s"}
	} else {
		m["csr.computed_gb_per_s"] = metric{0, "GB/s"}
	}
	drop := map[string][]string{
		"socket":     {"socket.overhead_ms_p50"},
		"http":       {"http.self_ms_p50", "socket.overhead_ms_p50"},
		"engine":     {"engine.self_ms_per_bin", "engine.allocs_per_bin", "engine.patch_ms_p50", "http.self_ms_p50"},
		"estimation": {"estimation.prior_ms_per_bin", "estimation.projection_ms_per_bin", "estimation.ipf_ms_per_bin", "estimation.ipf_sweeps_per_bin", "engine.self_ms_per_bin"},
		"lsqr":       {"lsqr.iterations_per_bin", "lsqr.ms_per_iteration", "csr.passes_per_bin", "csr.ms_per_pass", "csr.computed_gb_per_s", "estimation.projection_ms_per_bin"},
		"routing":    {"routing.patch_ms_p50", "estimation.rebase_ms_p50", "engine.patch_ms_p50"},
	}
	for layer := range a.failed {
		for _, name := range drop[layer] {
			delete(m, name)
		}
	}
	return m
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
