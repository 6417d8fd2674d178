// Command icbench is the ictm benchmark: it runs one named workload
// against the program's public entry points (the v2 HTTP API on a
// loopback socket, serve.Engine, store, estimation.Estimator, routing,
// linalg) on inputs it generates from --seed, checks the outputs, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as one JSON object on the last line of standard output.
//
//	icbench --workload geant-online --seed 1 --seconds 30 --trace 0
//	icbench twoset --workload isp100-lossy --runs 5
//
// Run it through run.sh, which builds it inside the checkout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workDir holds what a run writes (the warm-start store, span files),
// relative to the checkout root the benchmark runs from.
const workDir = ".bench_build/icbench"

// defaultProcs is the Go processor count of a run: with one closed-loop
// client and one worker, one P measured both faster and steadier than
// two (see README).
const defaultProcs = 1

// driver is one workload's path through the program.
type driver interface {
	// setup brings up the instance the run drives; sideSetup times one
	// more set-up on a separate instance and discards it.
	setup(log *opLog, tr *tracer, acc *layerAcc) (seconds float64, err error)
	sideSetup(log *opLog, tr *tracer, acc *layerAcc) (seconds float64, err error)
	warmUp(log *opLog) error
	round(ph *phase) error
	check(c *checker, rel *[]float64) error
	close() error
}

// phase is one stretch of rounds. record keeps the first round's
// outputs for the checks; tr and acc are set in the traced half.
type phase struct {
	log    *opLog
	c      *checker
	tr     *tracer
	acc    *layerAcc
	record bool
	// warm runs only the first estimate of each topology and the two
	// patches: enough to reach the steady up/down cycle.
	warm bool
	bins int
}

// phaseResult is what a timed phase measured.
type phaseResult struct {
	log     *opLog
	bins    int
	seconds float64
	gc      uint32
	rounds  int
	setupS  []float64
}

// minEstimates is the fewest estimate operations an untraced timed
// phase makes, so that p90 has ten samples beyond it. The traced phase
// reports medians only and stops on time alone.
const minEstimates = 100

// timed runs whole rounds for seconds (and, untraced, at least
// minEstimates estimate operations). Between rounds it takes sides
// extra set-up samples on side instances, spread evenly over the phase
// so that their median does not depend on the host's speed in one
// moment; the clock of the phase stops while they run.
func timed(d driver, seconds float64, sides int, c *checker, record bool, tr *tracer, acc *layerAcc) (*phaseResult, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	res := &phaseResult{log: &opLog{}}
	start := time.Now()
	var paused time.Duration
	active := func() float64 { return (time.Since(start) - paused).Seconds() }
	for {
		ph := &phase{log: res.log, c: c, tr: tr, acc: acc, record: record && res.rounds == 0}
		if err := d.round(ph); err != nil {
			return nil, err
		}
		res.bins += ph.bins
		res.rounds++
		for len(res.setupS) < sides && active() >= seconds*float64(len(res.setupS)+1)/float64(sides+1) {
			t0 := time.Now()
			s, err := d.sideSetup(res.log, tr, acc)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			res.setupS = append(res.setupS, s)
			paused += time.Since(t0)
		}
		if active() >= seconds && (tr != nil || len(res.log.latMS[opEstimate]) >= minEstimates) {
			break
		}
	}
	res.seconds = active()
	runtime.ReadMemStats(&ms)
	res.gc = ms.NumGC - gc0
	return res, nil
}

// endToEnd computes the end-to-end metrics of one timed phase.
func endToEnd(setup []float64, ph *phaseResult, rel []float64, rss float64) map[string]metric {
	est := ph.log.latMS[opEstimate]
	return map[string]metric{
		"setup_s":               {median(setup), "s"},
		"throughput_bins_per_s": {float64(ph.bins) / ph.seconds, "bins/s"},
		"latency_p50_ms":        {median(est), "ms"},
		"latency_p90_ms":        {percentile(est, 90), "ms"},
		"patch_latency_p50_ms":  {median(ph.log.latMS[opPatch]), "ms"},
		"rel_l2_mean":           {mean(rel), "1"},
		"peak_rss_mb":           {rss, "MiB"},
	}
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	procs    int
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "twoset" {
		if err := twoset(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "icbench twoset: %v\n", err)
			os.Exit(1)
		}
		return
	}
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "icbench: %v\n", err)
		os.Exit(2)
	}
	ok, err := run(cfg, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "icbench: %v\n", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("icbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seed int64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: geant-online, isp100-batch or isp100-lossy")
	fs.Int64Var(&seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	fs.IntVar(&cfg.procs, "procs", defaultProcs, "Go processor count (GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, err := workloadByName(cfg.workload); err != nil {
		return cfg, err
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds <= 0 || cfg.procs < 1 {
		return cfg, errors.New("--seconds and --procs must be positive")
	}
	cfg.seed, cfg.trace = uint64(seed), trace == 1
	return cfg, nil
}

// setupsFor is the number of set-ups a workload times per run: enough
// for a steady median, few enough that a cold routing.Build at n=100
// does not dominate the run.
func setupsFor(w *workload) int {
	if w.service {
		return 9
	}
	return 5
}

func run(cfg config, stdout, stderr io.Writer) (bool, error) {
	runtime.GOMAXPROCS(cfg.procs)
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return false, err
	}
	scratch, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(scratch) //nolint:errcheck // scratch space inside the checkout

	in, err := generate(w, cfg.seed)
	if err != nil {
		return false, fmt.Errorf("generate inputs: %w", err)
	}
	var d driver
	if w.service {
		d, err = newService(in, scratch)
	} else {
		d, err = newLibrary(in)
	}
	if err != nil {
		return false, err
	}
	defer d.close()

	all := &opLog{}
	setups := setupsFor(w)
	first, err := d.setup(all, nil, nil)
	if err != nil {
		return false, fmt.Errorf("set-up: %w", err)
	}
	var tr *tracer
	var acc *layerAcc
	sides := setups - 1
	if cfg.trace {
		tr, acc = newTracer(), newLayerAcc()
		sides = max(sides/2, 1)
	}
	if err := d.warmUp(all); err != nil {
		return false, fmt.Errorf("warm-up: %w", err)
	}
	if all.firstErr != nil {
		return false, fmt.Errorf("warm-up: %w", all.firstErr)
	}

	c := newChecker()
	length := cfg.seconds
	if cfg.trace {
		length /= 2
	}
	ph, err := timed(d, length, sides, c, true, nil, nil)
	if err != nil {
		return false, err
	}
	all.add(ph.log)
	rssUntraced := peakRSSMiB()
	var rel []float64
	if err := d.check(c, &rel); err != nil {
		return false, fmt.Errorf("checks: %w", err)
	}
	e2e := endToEnd(append(ph.setupS, first), ph, rel, rssUntraced)

	metrics := e2e
	if cfg.trace {
		tph, err := timed(d, length, sides, c, false, tr, acc)
		if err != nil {
			return false, err
		}
		all.add(tph.log)
		traced := endToEnd(tph.setupS, tph, rel, peakRSSMiB())
		metrics = acc.perLayer(memcopyGBps())
		for name, m := range traced {
			if name == "rel_l2_mean" {
				continue // tracing cannot move it: every replay is checked bitwise
			}
			metrics["trace_overhead."+name] = metric{m.Value - e2e[name].Value, m.Unit}
		}
		metrics["runtime.gc_cycles_per_kbin"] = metric{float64(ph.gc) / float64(ph.bins) * 1000, "count"}
		addWorkloadCounts(metrics, d)
		for layer, why := range acc.failed {
			c.expect("replay."+layer, false, "%s", why)
		}
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, cfg.seed))
		if err := tr.write(path); err != nil {
			return false, err
		}
		fmt.Fprintf(stderr, "icbench: %d spans written to %s\n", len(tr.spans), path)
	}

	attempted, failed := all.totals()
	fmt.Fprintf(stdout, "inputs: n=%d, %d links, %d CSR nonzeros; prior %s; flap of link %d-%d; %d bins per round, %d per operation\n",
		in.n, in.base.rm.L, in.base.rm.CSR().NNZ(), in.state.Name, in.flap.From, in.flap.To, w.poolBins, w.batch)
	report(stdout, w, cfg, ph, all, e2e, c)
	out := output{Correct: c.ok(), Attempted: attempted, Failed: failed, Metrics: metrics}
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(stdout, string(line))
	return c.ok(), nil
}

// addWorkloadCounts reports what the first round's inputs made the
// estimation layer do: degraded bins and dropped link equations per
// round. They describe the workload and must not move.
func addWorkloadCounts(m map[string]metric, d driver) {
	degraded, dropped := 0, 0
	switch d := d.(type) {
	case *service:
		for _, results := range d.recorded { // nil where a request failed
			for _, e := range results {
				if e.Diag.Degraded {
					degraded++
				}
				dropped += e.Diag.LinksDropped
			}
		}
	case *library:
		for _, r := range d.recorded {
			if r == nil {
				continue
			}
			degraded += r.Stats.DegradedBins
			dropped += r.Stats.LinksDroppedTotal
		}
	}
	m["estimation.degraded_bins"] = metric{float64(degraded), "count"}
	m["estimation.links_dropped"] = metric{float64(dropped), "count"}
}

// report prints the human-readable summary that precedes the JSON line.
func report(w io.Writer, wl *workload, cfg config, ph *phaseResult, all *opLog, e2e map[string]metric, c *checker) {
	fmt.Fprintf(w, "workload %s seed %d: %d rounds, %d bins in %.2f s (GOMAXPROCS %d)\n",
		wl.name, cfg.seed, ph.rounds, ph.bins, ph.seconds, cfg.procs)
	names := make([]string, 0, len(e2e))
	for name := range e2e {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-24s %14.6g %s\n", name, e2e[name].Value, e2e[name].Unit)
	}
	if pct, ok := tailPercentile(len(ph.log.latMS[opEstimate])); ok {
		fmt.Fprintf(w, "  %d estimate samples: highest percentile with ten beyond is p%.1f\n", len(ph.log.latMS[opEstimate]), pct)
	}
	for k := opKind(0); k < numKinds; k++ {
		fmt.Fprintf(w, "  ops %-9s attempted %6d failed %d\n", kindNames[k], all.attempted[k], all.failed[k])
	}
	if all.firstErr != nil {
		fmt.Fprintf(w, "  first failure: %v\n", all.firstErr)
	}
	fmt.Fprint(w, strings.TrimRight(c.summary(), "\n")+"\n")
}
