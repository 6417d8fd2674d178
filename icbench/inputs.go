package main

import (
	"fmt"
	"math"
	"sort"

	"ictm/internal/estimation"
	"ictm/internal/faults"
	"ictm/internal/fit"
	"ictm/internal/routing"
	"ictm/internal/serve"
	"ictm/internal/synth"
	"ictm/internal/tm"
	"ictm/internal/topology"
)

// workload is one named set of inputs and the path that drives them.
type workload struct {
	name string
	// scenario is the synthetic scenario. Its own seed fixes the
	// topology, the flapped link and the week of traffic, so every
	// --seed runs on the same network; --seed picks which bins of the
	// week a round carries, which of them lose links and the faults.
	scenario func() synth.Scenario
	// binsPerWeek sets the bin length of the generated week.
	binsPerWeek int
	// The first calBins bins (the first day) calibrate the prior. The
	// round carries poolBins bins drawn by --seed from the rest of the
	// week: the first half under the link-up topology and the second
	// half under the link-down one, each half in time order.
	calBins, poolBins int
	// batch is the number of bins per estimate operation: bins per HTTP
	// request on the service path, bins per EstimateSeries segment on
	// the library path.
	batch int
	prior string
	// lossyEvery: on the service path, every lossyEvery-th bin of the
	// round carries a Missing set drawn from the lossy profile (0 =
	// none). A fixed share keeps the mix of masked and full solves the
	// same for every seed.
	lossyEvery int
	// checkEvery: the bitwise check against an in-process EstimateBin
	// covers every checkEvery-th operation of the first timed round.
	checkEvery int
	// service selects the HTTP path; warmStore makes its set-up a warm
	// start from a store seeded before timing.
	service, warmStore bool
}

var workloads = []*workload{
	{
		name:        "geant-online",
		scenario:    synth.GeantLike,
		binsPerWeek: 2016,
		calBins:     288,
		poolBins:    128,
		batch:       1,
		prior:       "ic-stable-fP",
		lossyEvery:  4,
		checkEvery:  1,
		service:     true,
	},
	{
		name:        "isp100-batch",
		scenario:    func() synth.Scenario { return synth.ISPLike(100) },
		binsPerWeek: 168,
		calBins:     24,
		poolBins:    48,
		batch:       2,
		prior:       "gravity",
		checkEvery:  2,
		service:     true,
		warmStore:   true,
	},
	{
		name:        "isp100-lossy",
		scenario:    func() synth.Scenario { return synth.ISPLike(100) },
		binsPerWeek: 168,
		calBins:     24,
		poolBins:    48,
		batch:       2,
		prior:       "ic-stable-f",
		checkEvery:  2,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// mix derives a 64-bit stream seed from a base and a label (splitmix64
// finalizer): distinct labels give unrelated streams.
func mix(base, label uint64) uint64 {
	z := base + 0x9E3779B97F4A7C15*(label+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// drawBins draws k distinct bins of [lo, hi) by a seeded shuffle and
// returns them as two halves, each sorted by time.
func drawBins(seed uint64, lo, hi, k int) []int {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	s := mix(seed, 1<<23)
	for i := len(idx) - 1; i > 0; i-- {
		s = mix(s, uint64(i))
		j := int(s % uint64(i+1))
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := idx[:k]
	sort.Ints(out[:k/2])
	sort.Ints(out[k/2:])
	return out
}

// topoState is one topology the workload visits, with the benchmark's
// own reference artifacts: a routing.Build of its graph and an
// in-process estimator over it.
type topoState struct {
	g     *topology.Graph
	rm    *routing.Matrix
	est   *estimation.Estimator
	prior estimation.Prior
}

func newTopoState(g *topology.Graph, state estimation.PriorState) (*topoState, error) {
	rm, err := routing.Build(g)
	if err != nil {
		return nil, fmt.Errorf("routing.Build: %w", err)
	}
	est, err := estimation.NewEstimator(rm, estimation.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	p, err := est.RegisterPrior(state)
	if err != nil {
		return nil, err
	}
	return &topoState{g: g, rm: rm, est: est, prior: p}, nil
}

// inputs is everything a run feeds the program, generated from --seed
// before anything is timed.
type inputs struct {
	w     *workload
	seed  uint64
	spec  topology.Spec
	n     int
	state estimation.PriorState
	flap  synth.FlapEvent
	// truth is the round's traffic, one matrix per pool bin; times
	// holds each pool bin's index in the week.
	truth []*tm.TrafficMatrix
	times []int
	// base is the registered topology; up and down are the states the
	// cyclic flap alternates between once warm: down is base without
	// the flapped link, up is down with the link re-added (the same
	// graph as base, the link's edges now last in edge order).
	base, down, up *topoState
}

// stateOf returns the topology a pool bin is observed under.
func (in *inputs) stateOf(k int) *topoState {
	if k < in.w.poolBins/2 {
		return in.up
	}
	return in.down
}

func generate(w *workload, seed uint64) (*inputs, error) {
	sc := w.scenario()
	in := &inputs{w: w, seed: seed, spec: sc.Topology(), n: sc.N}
	g0, err := in.spec.Build()
	if err != nil {
		return nil, err
	}
	flaps, err := synth.GenerateFlaps(sc, g0, 1)
	if err != nil {
		return nil, err
	}
	in.flap = flaps.Events[0]

	tsc := sc
	tsc.BinsPerWeek = w.binsPerWeek
	tsc.Weeks = 1
	d, err := synth.Generate(tsc)
	if err != nil {
		return nil, err
	}
	if w.calBins+w.poolBins > d.Series.Len() {
		return nil, fmt.Errorf("%s: %d calibration + %d pool bins exceed the %d-bin week", w.name, w.calBins, w.poolBins, d.Series.Len())
	}
	cal, err := d.Series.Slice(0, w.calBins)
	if err != nil {
		return nil, err
	}
	switch w.prior {
	case "gravity":
		in.state = estimation.PriorState{Name: "gravity"}
	case "ic-stable-f":
		r, err := fit.StableF(cal, fit.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		in.state = estimation.PriorState{Name: "ic-stable-f", F: r.Params.F}
	case "ic-stable-fP":
		r, err := fit.StableFP(cal, fit.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		in.state = estimation.PriorState{Name: "ic-stable-fP", F: r.Params.F, Pref: r.Params.Pref}
	default:
		return nil, fmt.Errorf("unknown prior %q", w.prior)
	}
	in.times = drawBins(seed, w.calBins, d.Series.Len(), w.poolBins)
	for _, t := range in.times {
		in.truth = append(in.truth, d.Series.At(t))
	}

	gDown, _, err := g0.Apply(in.flap.Down())
	if err != nil {
		return nil, err
	}
	gUp, _, err := gDown.Apply(in.flap.Up())
	if err != nil {
		return nil, err
	}
	for _, s := range []struct {
		g   *topology.Graph
		dst **topoState
	}{{g0, &in.base}, {gDown, &in.down}, {gUp, &in.up}} {
		if *s.dst, err = newTopoState(s.g, in.state); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// serviceBins builds the wire bins of the pool. A bin picked as lossy
// carries the lossy profile's corruption of its link loads; the links
// the profile drops are sent as Missing (with a zero placeholder load,
// since JSON has no NaN).
func (in *inputs) serviceBins() ([]serve.Bin, error) {
	bins := make([]serve.Bin, len(in.truth))
	var prev []float64
	for k, x := range in.truth {
		st := in.stateOf(k)
		if k == in.w.poolBins/2 {
			prev = nil
		}
		y, err := st.rm.LinkLoads(x)
		if err != nil {
			return nil, err
		}
		clean := append([]float64(nil), y...)
		b := serve.Bin{T: in.times[k], Y: y}
		if in.w.lossyEvery > 0 && k%in.w.lossyEvery == in.w.lossyEvery-1 {
			inj := faults.NewInjector(faults.Lossy(), mix(in.seed, 1<<21), st.rm.L)
			inj.Apply(b.T, y, prev)
			for i, v := range y {
				if math.IsNaN(v) {
					b.Missing = append(b.Missing, i)
					y[i] = 0
				}
			}
		}
		bins[k] = b
		prev = clean
	}
	return bins, nil
}

// observation is a wire bin as the estimator sees it: Missing links
// marked NaN on a copy.
func observation(b serve.Bin) []float64 {
	y := append([]float64(nil), b.Y...)
	for _, i := range b.Missing {
		y[i] = math.NaN()
	}
	return y
}

// segment is one library-path estimate operation: a few consecutive
// pool bins with their own fault-injection seed.
type segment struct {
	first     int // pool index of the first bin
	series    *tm.Series
	faultSeed uint64
}

func (in *inputs) segments() ([]segment, error) {
	var segs []segment
	for lo := 0; lo < in.w.poolBins; lo += in.w.batch {
		hi := min(lo+in.w.batch, in.w.poolBins)
		if lo < in.w.poolBins/2 && hi > in.w.poolBins/2 {
			return nil, fmt.Errorf("segment [%d,%d) straddles the flap", lo, hi)
		}
		s := tm.NewSeries(in.n, 300)
		for k := lo; k < hi; k++ {
			if err := s.Append(in.truth[k]); err != nil {
				return nil, err
			}
		}
		segs = append(segs, segment{first: lo, series: s, faultSeed: mix(in.seed, 1<<22+uint64(lo))})
	}
	return segs, nil
}

// segmentObservations recomputes, independently of EstimateSeries, the
// faulted observation of every bin of a segment: clean loads of the
// truth under the state's routing, then the lossy profile keyed by the
// segment's seed, each bin's stale source being its predecessor's clean
// loads.
func segmentObservations(st *topoState, seg segment) ([][]float64, error) {
	inj := faults.NewInjector(faults.Lossy(), seg.faultSeed, st.rm.L)
	var out [][]float64
	var prev []float64
	for t := 0; t < seg.series.Len(); t++ {
		y, err := st.rm.LinkLoads(seg.series.At(t))
		if err != nil {
			return nil, err
		}
		clean := append([]float64(nil), y...)
		inj.Apply(t, y, prev)
		out = append(out, y)
		prev = clean
	}
	return out, nil
}
