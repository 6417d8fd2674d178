package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"testing"

	"ictm/internal/linalg"
	"ictm/internal/routing"
	"ictm/internal/topology"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		k    int
		pct  float64
		tail bool
	}{
		{0, 50, false}, {10, 50, false}, {39, 50, false},
		{40, 75, true}, {100, 90, true}, {200, 95, true}, {1000, 99, true},
	} {
		pct, tail := tailPercentile(tc.k)
		if tail != tc.tail || math.Abs(pct-tc.pct) > 1e-12 {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.k, pct, tail, tc.pct, tc.tail)
		}
	}
	// The reported p90 of 100 samples leaves exactly ten beyond it.
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	p90 := percentile(xs, 90)
	beyond := 0
	for _, x := range xs {
		if x > p90 {
			beyond++
		}
	}
	if p90 != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", p90, beyond)
	}
	if median([]float64{3, 1, 2, 4}) != 2.5 {
		t.Errorf("median of an even count must average the middle pair")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func smallRouting(t *testing.T) *routing.Matrix {
	t.Helper()
	g, err := topology.Waxman(8, 0.6, 0.4, 3)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	return rm
}

func TestCountingCSRBitwiseEqualToSparse(t *testing.T) {
	rm := smallRouting(t)
	csr := rm.CSR()
	cnt := &countingCSR{a: csr}
	b := make([]float64, csr.Rows())
	for i := range b {
		b[i] = math.Sin(float64(i)+0.5) * 1e6
	}
	want, wrep, err := linalg.LSQR(csr, b, linalg.LSQROptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, grep, err := linalg.LSQR(cnt, b, linalg.LSQROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got, want) || grep != wrep {
		t.Fatalf("LSQR over the counting wrapper differs from LSQR over linalg.Sparse")
	}
	if cnt.passes < 2*grep.Iterations {
		t.Errorf("%d passes for %d iterations", cnt.passes, grep.Iterations)
	}

	keep := make([]bool, csr.Rows())
	for i := range keep {
		keep[i] = i%5 != 0 || i >= rm.L
	}
	cnt = &countingCSR{a: csr}
	want, _, err = linalg.LSQR(linalg.NewRowMasked(csr, keep), b, linalg.LSQROptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = linalg.LSQR(linalg.NewRowMasked(cnt, keep), b, linalg.LSQROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got, want) || cnt.passes == 0 {
		t.Fatalf("row-masked LSQR over the counting wrapper differs (or counted no passes)")
	}

	x := make([]float64, csr.Cols())
	for i := range x {
		x[i] = float64(i%7) + 0.25
	}
	d1, d2 := make([]float64, csr.Rows()), make([]float64, csr.Rows())
	csr.MulVecTo(d1, x)
	cnt.MulVecTo(d2, x)
	t1, t2 := make([]float64, csr.Cols()), make([]float64, csr.Cols())
	csr.TMulVecTo(t1, d1)
	cnt.TMulVecTo(t2, d2)
	if !bitsEqual(d1, d2) || !bitsEqual(t1, t2) {
		t.Fatalf("counting products differ from linalg.Sparse")
	}
}

func TestFailedOperationIsCountedNotDropped(t *testing.T) {
	var log opLog
	if _, err := log.do(opEstimate, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected")
	if _, err := log.do(opEstimate, func() error { return injected }); !errors.Is(err, injected) {
		t.Fatalf("do returned %v, want the injected error", err)
	}
	// A request the server refuses is a failed operation too.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "refused", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	cl := newClient(srv.URL)
	defer cl.hc.CloseIdleConnections()
	if _, err := log.do(opPatch, func() error {
		_, err := cl.call(http.MethodPatch, "/v2/topologies/x", []byte("{}"))
		return err
	}); err == nil {
		t.Fatal("a 503 must fail the operation")
	}
	attempted, failed := log.totals()
	if attempted != 3 || failed != 2 || log.failed[opEstimate] != 1 || log.failed[opPatch] != 1 {
		t.Errorf("attempted %d failed %d (%v), want 3 and 2", attempted, failed, log.failed)
	}
	if len(log.latMS[opEstimate]) != 1 || len(log.latMS[opPatch]) != 0 {
		t.Errorf("failed operations must contribute no latency sample: %v", log.latMS)
	}
	if log.firstErr == nil || !errors.Is(log.firstErr, injected) {
		t.Errorf("first failure not kept: %v", log.firstErr)
	}
}

// TestBenchmarkFileNamesEveryMetric keeps BENCHMARK.json and the
// metrics this program prints in step.
func TestBenchmarkFileNamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var bf struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd([]float64{1}, &phaseResult{log: &opLog{}, bins: 1, seconds: 1}, []float64{1}, 1)
	layer := newLayerAcc().perLayer(1)
	layer["runtime.gc_cycles_per_kbin"] = metric{Unit: "count"}
	addWorkloadCounts(layer, &library{})
	for name, m := range e2e {
		if name != "rel_l2_mean" {
			layer["trace_overhead."+name] = m
		}
	}
	same := func(kind string, file []struct{ Name, Unit string }, printed map[string]metric) {
		var a, b []string
		for _, m := range file {
			a = append(a, m.Name+" "+m.Unit)
		}
		for name, m := range printed {
			b = append(b, name+" "+m.Unit)
		}
		sort.Strings(a)
		sort.Strings(b)
		if len(a) != len(b) {
			t.Fatalf("%s: BENCHMARK.json lists %v, the program prints %v", kind, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: BENCHMARK.json has %q, the program prints %q", kind, a[i], b[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, e2e)
	same("per_layer", bf.PerLayer, layer)
	for _, w := range bf.Workload {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(bf.Workload) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workload), len(workloads))
	}
}
