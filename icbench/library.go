package main

import (
	"bytes"
	"time"

	"ictm/internal/estimation"
	"ictm/internal/faults"
	"ictm/internal/routing"
	"ictm/internal/topology"
)

// library drives isp100-lossy: Estimator.EstimateSeries over short
// segments under the lossy fault profile, with the link flapped between
// segments by routing.Patch + Estimator.Rebase. No HTTP, no store.
type library struct {
	in   *inputs
	segs []segment
	half int // segs[:half] run on the up topology

	cur *topoState // the topology the estimator currently runs on

	// The first timed round's results and topologies by segment index
	// (nil where the call failed), and its patched matrices.
	recorded []*estimation.SeriesResult
	recSt    []*topoState
	patched  []*routing.Matrix
}

func newLibrary(in *inputs) (*library, error) {
	segs, err := in.segments()
	if err != nil {
		return nil, err
	}
	l := &library{in: in, segs: segs, recorded: make([]*estimation.SeriesResult, len(segs)), recSt: make([]*topoState, len(segs))}
	for _, s := range segs {
		if s.first < in.w.poolBins/2 {
			l.half++
		}
	}
	return l, nil
}

// bringUp is a cold start of the library path: graph, routing.Build,
// estimator, prior registration.
func (l *library) bringUp(log *opLog, acc *layerAcc) (*topoState, float64, error) {
	t0 := time.Now()
	g, err := l.in.spec.Build()
	if err != nil {
		return nil, 0, err
	}
	tb := time.Now()
	rm, err := routing.Build(g)
	if err != nil {
		return nil, 0, err
	}
	build := time.Since(tb)
	est, err := estimation.NewEstimator(rm, estimation.WithWorkers(1))
	if err != nil {
		return nil, 0, err
	}
	var p estimation.Prior
	if _, err := log.do(opRegister, func() error {
		var err error
		p, err = est.RegisterPrior(l.in.state)
		return err
	}); err != nil {
		return nil, 0, err
	}
	setup := time.Since(t0).Seconds()
	if acc != nil {
		acc.buildS = append(acc.buildS, build.Seconds())
	}
	return &topoState{g: g, rm: rm, est: est, prior: p}, setup, nil
}

func (l *library) setup(log *opLog, _ *tracer, acc *layerAcc) (float64, error) {
	st, setup, err := l.bringUp(log, acc)
	l.cur = st
	return setup, err
}

// sideSetup times one more cold start and discards its result.
func (l *library) sideSetup(log *opLog, _ *tracer, acc *layerAcc) (float64, error) {
	_, setup, err := l.bringUp(log, acc)
	return setup, err
}

// patch is one topology change: routing.Patch of the current matrix,
// then Estimator.Rebase onto the result.
func (l *library) patch(ph *phase, d topology.Delta) {
	var next *topoState
	var patchMS, rebaseMS float64
	_, err := ph.log.do(opPatch, func() error {
		t0 := time.Now()
		pm, ng, err := routing.Patch(l.cur.rm, l.cur.g, d)
		if err != nil {
			return err
		}
		t1 := time.Now()
		est, err := l.cur.est.Rebase(pm)
		if err != nil {
			return err
		}
		patchMS, rebaseMS = float64(t1.Sub(t0))/1e6, float64(time.Since(t1))/1e6
		next = &topoState{g: ng, rm: pm, est: est, prior: est.RegisteredPriors()[0]}
		return nil
	})
	if err != nil {
		return // counted as failed; the round goes on on the old topology
	}
	if ph.acc != nil {
		ph.acc.patchRoutingMS = append(ph.acc.patchRoutingMS, patchMS)
		ph.acc.rebaseMS = append(ph.acc.rebaseMS, rebaseMS)
	}
	if ph.record {
		l.patched = append(l.patched, next.rm)
	}
	l.cur = next
}

func (l *library) warmUp(log *opLog) error {
	ph := &phase{log: log, c: newChecker(), warm: true}
	l.patch(ph, l.in.flap.Down())
	l.patch(ph, l.in.flap.Up())
	if log.firstErr != nil {
		return log.firstErr
	}
	return l.round(ph)
}

func (l *library) round(ph *phase) error {
	for i, seg := range l.segs {
		if i == l.half {
			l.patch(ph, l.in.flap.Down())
		}
		if ph.warm && i != 0 && i != l.half {
			continue
		}
		st := l.cur
		est := st.est.With(estimation.WithFaultInjection(faults.Lossy(), seg.faultSeed))
		var res *estimation.SeriesResult
		req, outer := 0, 0
		if ph.tr != nil {
			req = ph.tr.newReq()
			outer = ph.tr.begin("estimation.series", -1, req)
		}
		_, err := ph.log.do(opEstimate, func() error {
			var err error
			res, err = est.EstimateSeries(seg.series, st.prior)
			return err
		})
		if ph.tr != nil {
			ph.tr.end(outer)
		}
		if err != nil {
			continue
		}
		ph.bins += seg.series.Len()
		if ph.record {
			l.recorded[i], l.recSt[i] = res, st
		}
		if ph.acc != nil {
			if err := l.replay(ph, req, outer, st, seg, res); err != nil {
				return err
			}
		}
	}
	l.patch(ph, l.in.flap.Up())
	return nil
}

// replay re-runs each bin of a traced segment through the estimation
// layers on the same estimator and checks the LSQR work against the
// series' own RunStats.
func (l *library) replay(ph *phase, req, outer int, st *topoState, seg segment, res *estimation.SeriesResult) error {
	obs, err := segmentObservations(st, seg)
	if err != nil {
		return err
	}
	iters := 0
	for t, y := range obs {
		it, _ := ph.acc.replayBin(ph.tr, outer, req, st, t, y, res.Estimates.At(t).Vec())
		iters += it
	}
	if iters != res.Stats.LSQRIterationsTotal {
		ph.acc.fail("lsqr", "replayed LSQR iterations %d, RunStats counted %d", iters, res.Stats.LSQRIterationsTotal)
	}
	return nil
}

// check verifies the first timed round's series results.
func (l *library) check(c *checker, rel *[]float64) error {
	in := l.in
	n := in.n
	for i, res := range l.recorded {
		if res == nil {
			continue // a failed call, already counted
		}
		seg, st := l.segs[i], l.recSt[i]
		ref := in.stateOf(seg.first)
		obs, err := segmentObservations(ref, seg)
		if err != nil {
			return err
		}
		degraded, dropped := 0, 0
		for _, y := range obs {
			d := 0
			for j := 0; j < ref.rm.L; j++ {
				if y[j] != y[j] {
					d++
				}
			}
			if d > 0 {
				degraded++
			}
			dropped += d
		}
		c.expect("degraded.matches_faults", res.Stats.DegradedBins == degraded && res.Stats.LinksDroppedTotal == dropped,
			"segment %d: program reports %d degraded bins and %d dropped links, the injected faults give %d and %d",
			i, res.Stats.DegradedBins, res.Stats.LinksDroppedTotal, degraded, dropped)
		c.expect("lossy.all_bins_masked", degraded == seg.series.Len(), "segment %d: %d of %d bins lost a link", i, degraded, seg.series.Len())
		for t, y := range obs {
			x := res.Estimates.At(t).Vec()
			c.expect("estimate.finite_nonneg", finiteNonNegative(x), "segment %d bin %d", i, t)
			if res.Stats.IPFNonConverged == 0 {
				_, ing, eg, err := ref.rm.SplitLoads(y)
				if err != nil {
					return err
				}
				e := marginalError(x, n, ing, eg)
				c.expect("converged.marginals", e <= ipfTol*(1+1e-6), "segment %d bin %d: marginal error %.3g", i, t, e)
			}
			*rel = append(*rel, relL2(seg.series.At(t), x))
			if i%in.w.checkEvery != 0 {
				continue
			}
			want, _, err := ref.est.EstimateBin(ref.prior, t, y)
			if err != nil {
				return err
			}
			c.expect("series_equals_inprocess", bitsEqual(want.Vec(), x),
				"segment %d bin %d: EstimateSeries differs from EstimateBin over routing.Build of the same graph", i, t)
		}
		c.expect("estimator.on_expected_topology", bytes.Equal(st.rm.AppendBinary(nil), ref.rm.AppendBinary(nil)),
			"segment %d ran on a matrix other than routing.Build of its graph", i)
	}
	want := []*topoState{in.down, in.up}
	for i, pm := range l.patched {
		c.expect("patch.equals_build", bytes.Equal(pm.AppendBinary(nil), want[i%2].rm.AppendBinary(nil)),
			"patch %d: routing.Patch result differs from routing.Build of the mutated graph", i)
	}
	c.expect("patch.count", len(l.patched) == 2, "first round made %d patches, want 2", len(l.patched))
	return checkPatches(c, in)
}

func (l *library) close() error { return nil }
