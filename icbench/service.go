package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"ictm/internal/routing"
	"ictm/internal/serve"
	"ictm/internal/store"
)

// server is the program's HTTP API on a loopback socket, served the way
// cmd/icserve serves it.
type server struct {
	handler http.Handler
	srv     *http.Server
	done    chan error
	url     string
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		handler: h,
		srv:     &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 2 * time.Minute},
		done:    make(chan error, 1),
		url:     "http://" + ln.Addr().String(),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits until it has stopped serving.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// client is the single closed-loop client: one keep-alive connection,
// the next request sent only after the previous answer is read.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

// call sends one request and returns the response body; a status other
// than 2xx is an error.
func (c *client) call(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return data, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

func (c *client) callJSON(method, path string, body []byte, out any) error {
	data, err := c.call(method, path, body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// svcReq is one estimate request of the round.
type svcReq struct {
	first int // pool index of its first bin
	bins  []serve.Bin
	st    *topoState
	key   *string // topology key and prior handle it names, learnt at warm-up
	hdl   *string
	body  []byte
}

// service drives geant-online and isp100-batch through the v2 HTTP API.
type service struct {
	in       *inputs
	bins     []serve.Bin
	specBody []byte
	state    []byte
	down, up []byte // PATCH bodies

	eng *serve.Engine
	srv *server
	cl  *client
	// stDir is the live engine's store; sideDir an identical copy that
	// side set-ups warm-start from, so they never see the topologies the
	// live engine's patches add.
	stDir, sideDir string

	keyBase, hdlBase string
	keyUp, hdlUp     string
	keyDown, hdlDown string

	reqs  []*svcReq // up half, then down half
	split int       // reqs[:split] run on the up topology

	// The first timed round's answers by request index (nil where the
	// request failed), checked after timing; later rounds must repeat
	// them byte for byte.
	recorded [][]serve.Estimate
	hashes   []uint64
}

func newService(in *inputs, workDir string) (*service, error) {
	s := &service{in: in}
	var err error
	if s.bins, err = in.serviceBins(); err != nil {
		return nil, err
	}
	if s.specBody, err = json.Marshal(in.spec); err != nil {
		return nil, err
	}
	if s.state, err = json.Marshal(in.state); err != nil {
		return nil, err
	}
	if s.down, err = json.Marshal(in.flap.Down()); err != nil {
		return nil, err
	}
	if s.up, err = json.Marshal(in.flap.Up()); err != nil {
		return nil, err
	}
	half := in.w.poolBins / 2
	for lo := 0; lo < in.w.poolBins; lo += in.w.batch {
		hi := min(lo+in.w.batch, in.w.poolBins)
		if lo < half && hi > half {
			return nil, fmt.Errorf("batch [%d,%d) straddles the flap", lo, hi)
		}
		r := &svcReq{first: lo, bins: s.bins[lo:hi], st: in.stateOf(lo), key: &s.keyUp, hdl: &s.hdlUp}
		if lo >= half {
			r.key, r.hdl = &s.keyDown, &s.hdlDown
		} else {
			s.split++
		}
		s.reqs = append(s.reqs, r)
	}
	s.recorded = make([][]serve.Estimate, len(s.reqs))
	s.hashes = make([]uint64, len(s.reqs))
	if in.w.warmStore {
		if err := s.seedStore(workDir); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// seedStore writes, before anything is timed, the stores a warm start
// reads: the base topology's routing matrix and its registrations.
func (s *service) seedStore(workDir string) error {
	s.stDir, s.sideDir = filepath.Join(workDir, "store"), filepath.Join(workDir, "store-side")
	for _, dir := range []string{s.stDir, s.sideDir} {
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		if err := st.PutMatrix(s.in.spec.Key(), s.in.base.rm); err != nil {
			return err
		}
		eng := serve.NewEngine(1, serve.WithStore(st))
		if _, _, err := eng.RegisterTopology("base", s.in.spec); err != nil {
			return err
		}
		if s.hdlBase, _, err = eng.RegisterPrior("base", s.in.state); err != nil {
			return err
		}
	}
	s.keyBase = "base"
	return nil
}

// bringUp starts a fresh engine and server and makes the first estimate
// servable: a cold registration over HTTP, or a warm start from a
// seeded store. It returns the time that took.
func (s *service) bringUp(log *opLog, tr *tracer, acc *layerAcc, storeDir string) (eng *serve.Engine, srv *server, cl *client, setup float64, err error) {
	t0 := time.Now()
	if s.in.w.warmStore {
		st, err := store.Open(storeDir)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		eng = serve.NewEngine(1, serve.WithStore(st))
		topos, priors, err := eng.WarmStart()
		if err != nil {
			return nil, nil, nil, 0, err
		}
		if acc != nil {
			acc.warmOpenMS = append(acc.warmOpenMS, float64(time.Since(t0))/1e6)
		}
		if topos != 1 || priors != 1 {
			return nil, nil, nil, 0, fmt.Errorf("warm start restored %d topologies and %d priors, want 1 and 1", topos, priors)
		}
	} else {
		eng = serve.NewEngine(1)
	}
	if srv, err = startServer(serve.NewHandler(eng, s.in.spec)); err != nil {
		return nil, nil, nil, 0, err
	}
	cl = newClient(srv.url)
	if !s.in.w.warmStore {
		var reg serve.TopologyRegistration
		if _, err = log.do(opRegister, func() error {
			return cl.callJSON(http.MethodPut, "/v2/topologies/base", s.specBody, &reg)
		}); err == nil {
			var pr serve.PriorRegistration
			_, err = log.do(opRegister, func() error {
				return cl.callJSON(http.MethodPost, "/v2/topologies/base/priors", s.state, &pr)
			})
			if err == nil && pr.Handle != s.hdlBase && s.hdlBase != "" {
				err = fmt.Errorf("prior handle %q, earlier set-ups got %q", pr.Handle, s.hdlBase)
			}
			s.keyBase, s.hdlBase = "base", pr.Handle
		}
		if err != nil {
			_ = srv.stop() // the registration error is the one to report
			return nil, nil, nil, 0, err
		}
	}
	setup = time.Since(t0).Seconds()
	if acc != nil {
		// What the registration (or the warm start it replaces) builds.
		sp := tr.begin("routing.build", -1, tr.newReq())
		if _, err := routing.Build(s.in.base.g); err != nil {
			return nil, nil, nil, 0, err
		}
		acc.buildS = append(acc.buildS, tr.end(sp)/1e3)
	}
	return eng, srv, cl, setup, nil
}

// setup brings up the engine the run drives.
func (s *service) setup(log *opLog, tr *tracer, acc *layerAcc) (float64, error) {
	var setup float64
	var err error
	s.eng, s.srv, s.cl, setup, err = s.bringUp(log, tr, acc, s.stDir)
	return setup, err
}

// sideSetup times one more set-up on a separate engine and server,
// then shuts them down (outside the timing).
func (s *service) sideSetup(log *opLog, tr *tracer, acc *layerAcc) (float64, error) {
	_, srv, cl, setup, err := s.bringUp(log, tr, acc, s.sideDir)
	if err != nil {
		return 0, err
	}
	err = srv.stop()
	cl.hc.CloseIdleConnections()
	return setup, err
}

// patch is one topology change: PATCH the key, then re-POST the prior to
// rediscover its handle on the derived key.
func (s *service) patch(log *opLog, from string, delta []byte) (key, hdl string, err error) {
	_, err = log.do(opPatch, func() error {
		var res serve.PatchResult
		if err := s.cl.callJSON(http.MethodPatch, "/v2/topologies/"+from, delta, &res); err != nil {
			return err
		}
		var pr serve.PriorRegistration
		if err := s.cl.callJSON(http.MethodPost, "/v2/topologies/"+res.Key+"/priors", s.state, &pr); err != nil {
			return err
		}
		key, hdl = res.Key, pr.Handle
		return nil
	})
	return key, hdl, err
}

// warmUp flaps the link once from the base topology, which leaves the
// engine in the up/down cycle every timed round repeats, then runs a
// short untimed round.
func (s *service) warmUp(log *opLog) error {
	var err error
	if s.keyDown, s.hdlDown, err = s.patch(log, s.keyBase, s.down); err != nil {
		return err
	}
	if s.keyUp, s.hdlUp, err = s.patch(log, s.keyDown, s.up); err != nil {
		return err
	}
	for _, r := range s.reqs {
		req := serve.EstimateRequest{SessionSpec: serve.SessionSpec{Topology: *r.key, Prior: *r.hdl}, Bins: r.bins}
		if r.body, err = json.Marshal(req); err != nil {
			return err
		}
	}
	return s.round(&phase{log: log, c: newChecker(), warm: true})
}

func (s *service) estimate(ph *phase, i int, r *svcReq) {
	var body []byte
	var resp serve.Response
	_, err := ph.log.do(opEstimate, func() error {
		var err error
		if body, err = s.cl.call(http.MethodPost, "/v2/estimate", r.body); err != nil {
			return err
		}
		return json.Unmarshal(body, &resp)
	})
	if err != nil {
		return // counted as failed
	}
	ph.bins += len(r.bins)
	h := fnv.New64a()
	h.Write(body)
	switch {
	case ph.record:
		s.recorded[i], s.hashes[i] = resp.Results, h.Sum64()
	case s.recorded[i] != nil:
		ph.c.expect("estimate.repeatable", h.Sum64() == s.hashes[i], "request %d answered differently than in the first round", i)
	}
}

func (s *service) round(ph *phase) error {
	flip := func(from string, delta []byte, wantKey, wantHdl string) {
		var key, hdl string
		var err error
		if ph.acc != nil {
			key, hdl, err = s.tracedPatch(ph, from, delta)
		} else {
			key, hdl, err = s.patch(ph.log, from, delta)
		}
		if err == nil { // a failed patch is already counted
			ph.c.expect("patch.derived_key", key == wantKey && hdl == wantHdl,
				"PATCH of %s gave %s/%s, want %s/%s", from, key, hdl, wantKey, wantHdl)
		}
	}
	for i, r := range s.reqs {
		if i == s.split {
			flip(s.keyUp, s.down, s.keyDown, s.hdlDown)
		}
		if ph.warm && i != 0 && i != s.split {
			continue
		}
		if ph.acc != nil {
			s.tracedEstimate(ph, r)
		} else {
			s.estimate(ph, i, r)
		}
	}
	flip(s.keyDown, s.up, s.keyUp, s.hdlUp)
	return nil
}

// tracedEstimate sends one request and replays it at every layer below
// the socket: ServeHTTP on a recorder, Engine.EstimateBatch, then each
// bin through the estimation layers.
func (s *service) tracedEstimate(ph *phase, r *svcReq) {
	tr, acc := ph.tr, ph.acc
	req := tr.newReq()
	before := s.eng.Stats().LSQRIterations
	var body []byte
	var resp serve.Response
	var decodeMS float64
	sock := tr.begin("socket", -1, req)
	_, err := ph.log.do(opEstimate, func() error {
		var err error
		if body, err = s.cl.call(http.MethodPost, "/v2/estimate", r.body); err != nil {
			return err
		}
		sd := tr.begin("client.decode", sock, req)
		err = json.Unmarshal(body, &resp)
		decodeMS = tr.end(sd)
		return err
	})
	sockMS := tr.end(sock)
	if err != nil {
		return
	}
	ph.bins += len(r.bins)
	programIters := s.eng.Stats().LSQRIterations - before

	sh := tr.begin("http", sock, req)
	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, "/v2/estimate", bytes.NewReader(r.body))
	hreq.Header.Set("Content-Type", "application/json")
	s.srv.handler.ServeHTTP(rec, hreq)
	httpMS := tr.end(sh)
	if !bytes.Equal(rec.Body.Bytes(), body) {
		acc.fail("http", "ServeHTTP replay body differs from the socket response")
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	se := tr.begin("engine", sh, req)
	results, err := s.eng.EstimateBatch(context.Background(), serve.SessionSpec{Topology: *r.key, Prior: *r.hdl}, r.bins)
	engMS := tr.end(se)
	runtime.ReadMemStats(&ms)
	if err != nil || len(results) != len(r.bins) {
		acc.fail("engine", "EstimateBatch replay: %d results for %d bins (%v)", len(results), len(r.bins), err)
		return
	}
	if enc, err := json.Marshal(serve.Response{Results: results}); err != nil || !bytes.Equal(append(enc, '\n'), body) {
		acc.fail("engine", "EstimateBatch replay differs from the HTTP response")
	}
	var binsMS float64
	iters := 0
	for i, b := range r.bins {
		it, binMS := acc.replayBin(tr, se, req, r.st, b.T, observation(b), results[i].Estimate)
		iters += it
		binsMS += binMS
	}
	if int64(iters) != programIters {
		acc.fail("lsqr", "replayed LSQR iterations %d, Engine.Stats counted %d", iters, programIters)
	}
	// The client's own decoding is not the socket's cost.
	acc.socketSelfMS = append(acc.socketSelfMS, sockMS-decodeMS-httpMS)
	acc.httpSelfMS = append(acc.httpSelfMS, httpMS-engMS)
	acc.responseBytes += len(body)
	acc.engineSelfMS += engMS - binsMS
	acc.engineAllocs += ms.Mallocs - mallocs
	acc.engineBins += len(r.bins)
}

// tracedPatch sends one topology change and replays it below the
// socket: Engine.PatchTopology, then routing.Patch and Estimator.Rebase
// on the benchmark's own copy of the source topology.
func (s *service) tracedPatch(ph *phase, from string, delta []byte) (key, hdl string, err error) {
	tr, acc := ph.tr, ph.acc
	req := tr.newReq()
	sock := tr.begin("socket.patch", -1, req)
	key, hdl, err = s.patch(ph.log, from, delta)
	tr.end(sock)
	if err != nil {
		return key, hdl, err
	}
	src, d := s.in.up, s.in.flap.Down()
	if from == s.keyDown {
		src, d = s.in.down, s.in.flap.Up()
	}
	se := tr.begin("engine.patch", sock, req)
	res, perr := s.eng.PatchTopology(from, d)
	acc.patchEngineMS = append(acc.patchEngineMS, tr.end(se))
	if perr != nil || res.Key != key {
		acc.fail("routing", "PatchTopology replay gave %q (%v), want %q", res.Key, perr, key)
		return key, hdl, nil
	}
	sr := tr.begin("routing.patch", se, req)
	pm, _, perr := routing.Patch(src.rm, src.g, d)
	acc.patchRoutingMS = append(acc.patchRoutingMS, tr.end(sr))
	if perr != nil {
		acc.fail("routing", "routing.Patch replay: %v", perr)
		return key, hdl, nil
	}
	sb := tr.begin("estimation.rebase", se, req)
	_, perr = src.est.Rebase(pm)
	acc.rebaseMS = append(acc.rebaseMS, tr.end(sb))
	if perr != nil {
		acc.fail("routing", "Rebase replay: %v", perr)
	}
	return key, hdl, nil
}

// check verifies the first timed round's served estimates.
func (s *service) check(c *checker, rel *[]float64) error {
	in := s.in
	n := in.n
	var cleanEst, cleanPrior []float64
	for i, results := range s.recorded {
		if results == nil {
			continue // a failed request, already counted
		}
		r := s.reqs[i]
		c.expect("estimate.count", len(results) == len(r.bins), "request %d: %d results for %d bins", i, len(results), len(r.bins))
		for j, est := range results {
			if j >= len(r.bins) {
				break
			}
			b, st, x := r.bins[j], r.st, in.truth[r.first+j]
			c.expect("estimate.no_error", est.Error == "", "bin %d: %s", b.T, est.Error)
			if est.Error != "" || len(est.Estimate) != n*n {
				c.expect("estimate.shape", false, "bin %d: %d entries, want %d", b.T, len(est.Estimate), n*n)
				continue
			}
			c.expect("estimate.finite_nonneg", finiteNonNegative(est.Estimate), "bin %d", b.T)
			c.expect("degraded.matches_missing",
				est.Diag.Degraded == (len(b.Missing) > 0) && est.Diag.LinksDropped == len(b.Missing),
				"bin %d sent %d missing links, came back degraded=%v dropped=%d", b.T, len(b.Missing), est.Diag.Degraded, est.Diag.LinksDropped)
			_, ing, eg, err := st.rm.SplitLoads(b.Y)
			if err != nil {
				return err
			}
			if est.Diag.IPFConverged {
				e := marginalError(est.Estimate, n, ing, eg)
				c.expect("converged.marginals", e <= ipfTol*(1+1e-6), "bin %d: marginal error %.3g", b.T, e)
			}
			e := relL2(x, est.Estimate)
			*rel = append(*rel, e)
			if len(b.Missing) == 0 {
				p, err := st.prior.PriorFor(b.T, ing, eg)
				if err != nil {
					return err
				}
				cleanEst = append(cleanEst, e)
				cleanPrior = append(cleanPrior, relL2(x, p.Vec()))
			}
			if i%in.w.checkEvery != 0 {
				continue
			}
			ref, diag, err := st.est.EstimateBin(st.prior, b.T, observation(b))
			if err != nil {
				return err
			}
			c.expect("served_equals_inprocess", bitsEqual(ref.Vec(), est.Estimate) && diag.LinksDropped == est.Diag.LinksDropped,
				"bin %d: served estimate differs from in-process EstimateBin", b.T)
		}
	}
	if len(cleanEst) > 0 {
		c.expect("clean.beats_prior", mean(cleanEst) < mean(cleanPrior),
			"clean bins: estimate error %.4f, prior-alone error %.4f", mean(cleanEst), mean(cleanPrior))
	}
	st := s.eng.Stats()
	c.expect("engine.no_bin_errors", st.BinErrors == 0, "%d bin errors", st.BinErrors)
	if in.w.warmStore {
		c.expect("warm_start.no_routing_build", st.RoutingBuilds == 0, "%d routing.Build calls", st.RoutingBuilds)
	}
	return checkPatches(c, in)
}

func (s *service) close() error {
	var err error
	if s.srv != nil {
		err = s.srv.stop()
		s.cl.hc.CloseIdleConnections()
	}
	return err
}

// checkPatches verifies that routing.Patch over each flap of the cycle
// yields exactly the matrix routing.Build makes of the mutated graph.
func checkPatches(c *checker, in *inputs) error {
	steps := []struct {
		name     string
		from, to *topoState
		down     bool
	}{
		{"base→down", in.base, in.down, true},
		{"down→up", in.down, in.up, false},
		{"up→down", in.up, in.down, true},
	}
	for _, st := range steps {
		d := in.flap.Up()
		if st.down {
			d = in.flap.Down()
		}
		pm, _, err := routing.Patch(st.from.rm, st.from.g, d)
		if err != nil {
			return fmt.Errorf("routing.Patch %s: %w", st.name, err)
		}
		c.expect("patch.equals_build", bytes.Equal(pm.AppendBinary(nil), st.to.rm.AppendBinary(nil)),
			"%s: patched matrix differs from routing.Build of the mutated graph", st.name)
	}
	return nil
}
