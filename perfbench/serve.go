package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hipo"
	"hipo/internal/corpus"
	"hipo/internal/jobs"
	"hipo/internal/loadrun"
	"hipo/internal/model"
	"hipo/internal/serve"
	"hipo/internal/visindex"
)

// serveEps is the approximation parameter of every serve-mixed solve.
const serveEps = 0.3

// repeatShare is the share of a client's draws that exactly repeat one of
// its recent sync solves, so that the server answers them from its solve
// cache. It is chosen, not measured: the repo has no record of how often
// real clients resend a scenario (hipoload's 95% hits come from its
// 220-item corpus), and a share near one half gives hits and misses
// thousands of samples each per run. The other draws follow serveMix.
const repeatShare = 0.55

// serveMix weights the draws that are not repeats. It is loadrun.DefaultMix
// (sync 65, async 15, cancel 5, evaluate 10, register→mutate→solve chain 5),
// the repo's model of online redeployment traffic, pinned here so that a
// change to the load generator's default does not silently change this
// workload; the self-test fails when the two part.
var serveMix = loadrun.Mix{SolveSync: 65, SolveAsync: 15, Cancel: 5, Evaluate: 10, MutateSolve: 5}

const (
	// recentSolves is how many of a client's latest sync solves repeats and
	// evaluations draw from; small enough that the solve cache (256 entries
	// by default) still holds every one of them.
	recentSolves = 16
	// planChunk is how many ops of its plan a client holds, with every
	// request body built. When one client has used its plan up, both stop,
	// the window pauses, and the plans are topped up again, so no body is
	// generated while the clock runs and the plans stay small in the heap.
	planChunk = 2048
	// utilityPerClient is how many of each client's first solved placements
	// the utility metric averages, so that it depends on the seed alone.
	utilityPerClient = 300
)

// solveFamilies are the corpus families of the /v1/solve endpoint.
var solveFamilies = []string{
	"sparse-obstacles", "dense-obstacles", "uniform-devices",
	"clustered-devices", "corridor-devices", "single-type", "mixed-type",
}

// server is an internal/serve handler stack behind a loopback listener.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	cancel context.CancelFunc
	done   chan error
}

func startServer(hc *http.Client) (*server, error) {
	ctx, cancel := context.WithCancel(context.Background())
	// hiposerve's defaults, with request logs formatted but discarded.
	srv := serve.New(ctx, serve.Config{
		JobRetainTTL:   time.Hour,
		JobMaxTerminal: 1024,
		SlowSolve:      10 * time.Second,
		Logger:         slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(),
		cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	resp, err := hc.Get(s.url + "/healthz")
	if err != nil {
		s.stop()
		return nil, err
	}
	resp.Body.Close()
	return s, nil
}

// stop shuts the listener and the job queue down and waits for both.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout here only leaves idle connections to the exit
	_ = s.srv.Shutdown(ctx)
	s.cancel()
	<-s.done
}

// opKind is the kind of one drawn op.
type opKind int

const (
	kindRepeat   opKind = iota // resend a recent sync solve: a cache hit
	kindSync                   // sync /v1/solve of a new scenario
	kindAsync                  // async /v1/solve, polled through /v1/jobs
	kindCancel                 // async /v1/solve, cancelled at once, polled to its end
	kindEvaluate               // /v1/evaluate of a recent placement
	kindChain                  // /v1/scenarios register → mutate → solve
)

// planned is one drawn op with every body it sends already built.
type planned struct {
	kind opKind
	// pick chooses among the recent solves (modulo how many there are).
	pick int
	// n is the index of the new scenario, or of the chain, in the client's
	// sequence; checks rebuild the scenario from it after the window.
	n     int
	body  []byte // solve request; a chain's register request
	scEnd int    // sync: end of the scenario's JSON inside body
	// mutate is a chain's mutate request.
	mutate []byte
	// model is the new scenario, kept in traced runs for the replay.
	model *model.Scenario
}

// solved is a sync solve a client completed.
type solved struct {
	body    []byte
	scEnd   int
	resp    []byte
	utility float64
}

// libCheck is a miss response kept for comparison with the library.
type libCheck struct {
	chain bool
	n     int
	body  []byte
}

// serveClient is one closed-loop client: it sends its next request only
// after the previous one completed.
type serveClient struct {
	id     int
	seed   int64
	rng    *rand.Rand
	http   *http.Client
	url    string
	trace  bool
	plan   []planned
	recent []solved
	// scenarios and chains count the new scenarios and chains drawn so far;
	// syncPlanned, the sync solves, tells whether a repeat has anything to
	// repeat yet.
	scenarios, chains, syncPlanned int
	// built counts request bodies generated, and builtInWindow those
	// generated while an op ran, which the plan is there to keep at 0.
	built, builtInWindow int
	chainSolve           []byte
	ops                  int

	traced, untraced []float64 // op latencies (ms)
	hitMs, missMs    []float64
	hits, misses     int
	utilities        []float64
	queueWaitMs      []float64

	// checks is a seeded reservoir sample of the client's miss responses,
	// compared with the library after the window.
	checks   []libCheck
	checkCap int
	offered  int
	checkRNG *rand.Rand
}

func newServeClient(id int, seed int64, url string, hc *http.Client, checks int, trace bool) (*serveClient, error) {
	c := &serveClient{id: id, seed: subSeed(seed, "serve-client", id), rng: rand.New(rand.NewSource(subSeed(seed, "serve-mix", id))),
		http: hc, url: url, trace: trace, checkCap: checks, checkRNG: rand.New(rand.NewSource(subSeed(seed, "serve-check", id)))}
	var err error
	if c.chainSolve, err = json.Marshal(map[string]any{"options": serve.SolveOptions{Eps: serveEps}}); err != nil {
		return nil, err
	}
	return c, c.refill()
}

// draw picks the next op's kind: repeatShare repeats, the rest by serveMix.
func (c *serveClient) draw() opKind {
	if c.rng.Float64() < repeatShare {
		return kindRepeat
	}
	weights := []struct {
		kind opKind
		w    int
	}{
		{kindSync, serveMix.SolveSync}, {kindAsync, serveMix.SolveAsync}, {kindCancel, serveMix.Cancel},
		{kindEvaluate, serveMix.Evaluate}, {kindChain, serveMix.MutateSolve},
	}
	total := 0
	for _, x := range weights {
		total += x.w
	}
	r := c.rng.Intn(total)
	for _, x := range weights {
		if r < x.w {
			return x.kind
		}
		r -= x.w
	}
	panic("unreachable")
}

// refill draws ops until the plan holds planChunk, building every body they
// send. It runs during set-up or while the window is paused.
func (c *serveClient) refill() error {
	for len(c.plan) < planChunk {
		op := planned{kind: c.draw()}
		if (op.kind == kindRepeat || op.kind == kindEvaluate) && c.syncPlanned == 0 {
			op.kind = kindSync // nothing to repeat or evaluate yet
		}
		var err error
		switch op.kind {
		case kindRepeat, kindEvaluate:
			op.pick = c.rng.Intn(recentSolves)
		case kindChain:
			op.n = c.chains
			c.chains++
			var it corpus.Item
			if it, err = c.chainItem(op.n); err == nil {
				op.body, err = json.Marshal(map[string]any{"scenario": it.Scenario})
			}
			if err == nil {
				op.mutate, err = json.Marshal(map[string]any{"mutations": it.Mutations})
			}
			c.built += 2
		default:
			mode := "async"
			if op.kind == kindSync {
				mode = "sync"
				c.syncPlanned++
			}
			op.n = c.scenarios
			c.scenarios++
			var m *model.Scenario
			if m, err = c.scenario(op.n); err == nil {
				op.body, err = json.Marshal(serve.SolveRequest{Scenario: corpus.ToPublic(m), Options: serve.SolveOptions{Eps: serveEps}, Mode: mode})
			}
			if err == nil && op.kind == kindSync {
				if op.scEnd = bytes.LastIndex(op.body, []byte(`,"options":`)); op.scEnd < 0 {
					err = errors.New("solve request without options")
				}
			}
			if c.trace {
				op.model = m
			}
			c.built++
		}
		if err != nil {
			return err
		}
		c.plan = append(c.plan, op)
	}
	return nil
}

// scenario rebuilds the client's n-th new scenario.
func (c *serveClient) scenario(n int) (*model.Scenario, error) {
	return corpus.BuildModel(c.seed, solveFamilies[n%len(solveFamilies)], n/len(solveFamilies))
}

// chainItem rebuilds the client's n-th registry chain: a mutation-trace
// scenario with its mutations.
func (c *serveClient) chainItem(n int) (corpus.Item, error) {
	cor, err := corpus.Generate(corpus.Config{Seed: subSeed(c.seed, "chain", n), PerFamily: 1,
		Families: []string{"mutation-trace"}})
	if err != nil {
		return corpus.Item{}, err
	}
	return cor.Items[0], nil
}

// keep offers a miss response to the client's check sample (reservoir
// sampling, so every miss is equally likely to be checked).
func (c *serveClient) keep(ch libCheck) {
	c.offered++
	if len(c.checks) < c.checkCap {
		c.checks = append(c.checks, ch)
	} else if j := c.checkRNG.Intn(c.offered); j < c.checkCap {
		c.checks[j] = ch
	}
}

// send sends one request and returns status, X-Cache and body.
func (c *serveClient) send(method, path string, body []byte) (int, string, []byte, error) {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), b, err
}

// step runs the next op of the plan (a chain runs three). Traced ops run
// under a client span and replay the handler's public calls on the same
// bodies.
func (c *serveClient) step(o *outcome, w *window, rec *recorder) {
	op := c.plan[0]
	c.plan[0] = planned{} // let the bodies go once used
	c.plan = c.plan[1:]
	traced := rec != nil && c.ops%2 == 0
	c.ops++
	switch op.kind {
	case kindRepeat:
		c.repeat(o, w, rec, traced, op)
	case kindSync:
		c.solveSync(o, w, rec, traced, op)
	case kindAsync, kindCancel:
		c.solveAsync(o, w, rec, traced, op)
	case kindEvaluate:
		c.evaluate(o, w, rec, traced, op)
	case kindChain:
		c.chain(o, w, rec, traced, op)
	}
}

// reply is one op's exchange as the client saw it.
type reply struct {
	span   int // client span when traced, else 0
	status int
	cache  string // X-Cache header
	body   []byte
	ms     float64
}

// begin starts timing an op, under a client span when traced; the returned
// function ends it, records the latency, and returns it in ms.
func (c *serveClient) begin(w *window, rec *recorder, traced bool) (int, func() float64) {
	span, end := 0, func() {}
	if traced {
		span, end = rec.start("serve.request", 0, 0)
	}
	start := time.Now()
	return span, func() float64 {
		d := time.Since(start)
		end()
		w.op(d)
		if traced {
			c.traced = append(c.traced, ms(d))
		} else {
			c.untraced = append(c.untraced, ms(d))
		}
		return ms(d)
	}
}

// timed sends one request as an op.
func (c *serveClient) timed(w *window, rec *recorder, traced bool, method, path string, body []byte) (reply, error) {
	span, done := c.begin(w, rec, traced)
	status, xc, resp, err := c.send(method, path, body)
	return reply{span: span, status: status, cache: xc, body: resp, ms: done()}, err
}

// recentFor returns the recent solve an op picked; false when a failed
// solve left nothing to pick from.
func (c *serveClient) recentFor(o *outcome, op planned) (solved, bool) {
	if len(c.recent) == 0 {
		o.fail("client %d: no solve to repeat or evaluate", c.id)
		return solved{}, false
	}
	return c.recent[op.pick%len(c.recent)], true
}

func (c *serveClient) repeat(o *outcome, w *window, rec *recorder, traced bool, op planned) {
	h, ok := c.recentFor(o, op)
	if !ok {
		return
	}
	r, err := c.timed(w, rec, traced, "POST", "/v1/solve", h.body)
	switch {
	case err != nil || r.status != http.StatusOK:
		o.fail("client %d repeat: status %d: %v", c.id, r.status, err)
		return
	case r.cache != "hit":
		o.fail("client %d repeat: X-Cache %q, want hit", c.id, r.cache)
	case !bytes.Equal(r.body, h.resp):
		o.fail("client %d repeat: cached body differs from the first response", c.id)
	}
	c.count(r)
	if traced {
		replaySolve(rec, r.span, h.body, nil, nil)
	}
}

// count tallies a solve response by its X-Cache header.
func (c *serveClient) count(r reply) {
	switch r.cache {
	case "hit":
		c.hits++
		c.hitMs = append(c.hitMs, r.ms)
	case "miss":
		c.misses++
		c.missMs = append(c.missMs, r.ms)
	}
}

// placed decodes a returned placement, records its utility and offers it to
// the library check.
func (c *serveClient) placed(o *outcome, what string, body []byte, ch libCheck) (*hipo.Placement, bool) {
	var p hipo.Placement
	if err := json.Unmarshal(body, &p); err != nil {
		o.fail("client %d %s: decode placement: %v", c.id, what, err)
		return nil, false
	}
	c.utilities = append(c.utilities, p.Utility)
	c.keep(ch)
	return &p, true
}

func (c *serveClient) solveSync(o *outcome, w *window, rec *recorder, traced bool, op planned) {
	r, err := c.timed(w, rec, traced, "POST", "/v1/solve", op.body)
	if err != nil || r.status != http.StatusOK {
		o.fail("client %d solve: status %d: %v", c.id, r.status, err)
		return
	}
	if r.cache != "miss" {
		o.fail("client %d new solve: X-Cache %q, want miss", c.id, r.cache)
	}
	c.count(r)
	p, ok := c.placed(o, "solve", r.body, libCheck{n: op.n, body: r.body})
	if !ok {
		return
	}
	c.recent = append(c.recent, solved{op.body, op.scEnd, r.body, p.Utility})
	if len(c.recent) > recentSolves {
		c.recent = c.recent[1:]
	}
	if traced {
		replaySolve(rec, r.span, op.body, op.model, p)
	}
}

// solveAsync submits an async solve and polls its job to the end; a cancel
// op deletes the job first. The whole exchange is one op.
func (c *serveClient) solveAsync(o *outcome, w *window, rec *recorder, traced bool, op planned) {
	cancel := op.kind == kindCancel
	span, done := c.begin(w, rec, traced)
	snap, err := c.submitAndWait(op.body, cancel)
	done()
	if err != nil {
		o.fail("client %d async solve (cancel=%v): %v", c.id, cancel, err)
		return
	}
	if snap.Started != nil {
		c.queueWaitMs = append(c.queueWaitMs, ms(snap.Started.Sub(snap.Created)))
	}
	switch {
	case cancel && (snap.State == jobs.StateCanceled || snap.State == jobs.StateDone):
		// Whether the cancel beat the solve is a race, so a finished
		// placement joins neither the utility nor the check sample: both
		// stay fixed by the seed.
		return
	case snap.State != jobs.StateDone:
		o.fail("client %d async solve (cancel=%v): job %s: %s", c.id, cancel, snap.State, snap.Error)
		return
	}
	p, ok := c.placed(o, "async solve", snap.Result, libCheck{n: op.n, body: snap.Result})
	if ok && traced {
		replaySolve(rec, span, op.body, op.model, p)
	}
}

// jobSnapshot is the part of a /v1/jobs snapshot the client reads.
type jobSnapshot struct {
	State   jobs.State      `json:"state"`
	Result  json.RawMessage `json:"result"`
	Error   string          `json:"error"`
	Created time.Time       `json:"created"`
	Started *time.Time      `json:"started"`
}

// submitAndWait submits an async solve (a cache miss on the server),
// cancels it when asked, and polls its job until the job ends.
func (c *serveClient) submitAndWait(body []byte, cancel bool) (*jobSnapshot, error) {
	status, xc, resp, err := c.send("POST", "/v1/solve", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusAccepted {
		return nil, fmt.Errorf("submit: status %d, X-Cache %q: %s", status, xc, resp)
	}
	c.misses++
	var sub struct {
		StatusURL string `json:"status_url"`
	}
	if err := json.Unmarshal(resp, &sub); err != nil {
		return nil, err
	}
	if cancel {
		if status, _, resp, err = c.send("DELETE", sub.StatusURL, nil); err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("cancel: status %d: %s", status, resp)
		}
	}
	for {
		status, _, resp, err := c.send("GET", sub.StatusURL, nil)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("poll: status %d: %s", status, resp)
		}
		var snap jobSnapshot
		if err := json.Unmarshal(resp, &snap); err != nil {
			return nil, err
		}
		if snap.State.Terminal() {
			return &snap, nil
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// evaluate scores a recent placement. Its body splices the scenario's JSON
// from the solve request and the placement's JSON from the response, so no
// body is encoded while the window runs.
func (c *serveClient) evaluate(o *outcome, w *window, rec *recorder, traced bool, op planned) {
	h, ok := c.recentFor(o, op)
	if !ok {
		return
	}
	body := make([]byte, 0, h.scEnd+len(h.resp)+16)
	body = append(body, h.body[:h.scEnd]...) // {"scenario":{...}
	body = append(body, `,"placement":`...)
	body = append(body, h.resp...)
	body = append(body, '}')
	r, err := c.timed(w, rec, traced, "POST", "/v1/evaluate", body)
	if err != nil || r.status != http.StatusOK {
		o.fail("client %d evaluate: status %d: %v", c.id, r.status, err)
		return
	}
	var m hipo.Metrics
	if err := json.Unmarshal(r.body, &m); err != nil {
		o.fail("client %d evaluate: %v", c.id, err)
		return
	}
	if math.Float64bits(m.Utility) != math.Float64bits(h.utility) {
		o.fail("client %d evaluate: utility %v, placement reported %v", c.id, m.Utility, h.utility)
	}
	if traced {
		replayEvaluate(rec, r.span, body)
	}
}

// chain registers a new mutation-trace scenario, applies its mutations, and
// solves the result through the scenario registry: three ops.
func (c *serveClient) chain(o *outcome, w *window, rec *recorder, traced bool, op planned) {
	var info struct {
		Hash string `json:"scenario_hash"`
	}
	post := func(path string, body []byte, want int) bool {
		r, err := c.timed(w, rec, traced, "POST", path, body)
		if err == nil && r.status == want {
			err = json.Unmarshal(r.body, &info)
		}
		if err != nil || r.status != want {
			o.fail("client %d chain %s: status %d (want %d): %v", c.id, path, r.status, want, err)
			return false
		}
		return true
	}
	if !post("/v1/scenarios", op.body, http.StatusCreated) ||
		!post("/v1/scenarios/"+info.Hash+"/mutate", op.mutate, http.StatusCreated) {
		return
	}
	r, err := c.timed(w, rec, traced, "POST", "/v1/scenarios/"+info.Hash+"/solve", c.chainSolve)
	if err != nil || r.status != http.StatusOK {
		o.fail("client %d chain solve: status %d: %v", c.id, r.status, err)
		return
	}
	if r.cache != "miss" {
		o.fail("client %d chain solve: X-Cache %q, want miss", c.id, r.cache)
	}
	c.count(r)
	var out struct {
		Placement json.RawMessage `json:"placement"`
	}
	if err := json.Unmarshal(r.body, &out); err != nil {
		o.fail("client %d chain solve: decode: %v", c.id, err)
		return
	}
	c.placed(o, "chain solve", out.Placement, libCheck{chain: true, n: op.n, body: out.Placement})
}

// replaySolve times, on the body a solve request sent, the public calls the
// handler makes: decode, Validate, ScenarioHash and, when the request ran a
// solve, the visibility-index build and the placement's encoding.
func replaySolve(rec *recorder, parent int, body []byte, m *model.Scenario, p *hipo.Placement) {
	var req serve.SolveRequest
	rec.do("serve.decode", parent, parent, func() { _ = json.Unmarshal(body, &req) })
	if req.Scenario == nil {
		return
	}
	rec.do("hipo.validate", parent, parent, func() { _ = req.Scenario.Validate() })
	rec.do("hipo.scenario_hash", parent, parent, func() { _, _ = req.Scenario.ScenarioHash() })
	if m != nil {
		rec.do("visindex.ensure", parent, parent, func() { visindex.Ensure(m) })
	}
	if p != nil {
		rec.do("serve.encode", parent, parent, func() { _, _ = json.Marshal(p) })
	}
}

// replayEvaluate is replaySolve for /v1/evaluate.
func replayEvaluate(rec *recorder, parent int, body []byte) {
	var req serve.EvaluateRequest
	rec.do("serve.decode", parent, parent, func() { _ = json.Unmarshal(body, &req) })
	if req.Scenario == nil || req.Placement == nil {
		return
	}
	rec.do("hipo.validate", parent, parent, func() { _ = req.Scenario.Validate() })
	var m *hipo.Metrics
	rec.do("power.evaluate", parent, parent, func() { m, _ = req.Scenario.Evaluate(req.Placement) })
	rec.do("serve.encode", parent, parent, func() { _, _ = json.Marshal(m) })
}

// runServe is the serve-mixed workload: closed-loop clients drive the
// internal/serve handler stack over a loopback listener with a mix of cache
// hits, new solves, evaluations, registry chains and async jobs.
func runServe(cfg config) (*outcome, error) {
	o := newOutcome()
	nc := cfg.size.serveClients
	var srv *server
	var clients []*serveClient
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nc}}
	defer hc.CloseIdleConnections()
	setup, err := timeSetup(cfg.size.setupReps, func() error {
		if srv != nil {
			srv.stop()
			hc.CloseIdleConnections()
		}
		var err error
		if srv, err = startServer(hc); err != nil {
			return err
		}
		clients = clients[:0]
		for i := 0; i < nc; i++ {
			c, err := newServeClient(i, cfg.seed, srv.url, hc, (cfg.size.serveChecks+nc-1)/nc, cfg.trace)
			if err != nil {
				return err
			}
			clients = append(clients, c)
		}
		return nil
	})
	if err != nil {
		if srv != nil {
			srv.stop()
		}
		return nil, err
	}
	defer srv.stop()
	for i, c := range clients {
		o.Seeds[fmt.Sprintf("client-%d", i)] = c.seed
	}

	before, err := loadrun.ScrapeMetrics(hc, srv.url)
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
		o.spans = rec
	}
	w := startWindow(cfg.seconds)
	refills := 0
	for {
		// Run until the deadline or until some client has used its plan up.
		var spent atomic.Bool
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *serveClient) {
				defer wg.Done()
				for w.open() && !spent.Load() {
					if len(c.plan) == 0 {
						spent.Store(true)
						return
					}
					built := c.built
					c.step(o, w, rec)
					c.builtInWindow += c.built - built
				}
			}(c)
		}
		wg.Wait()
		if !w.open() {
			break
		}
		resume := w.pause()
		for _, c := range clients {
			err = errors.Join(err, c.refill())
		}
		resume()
		refills++
		if err != nil {
			w.close()
			return nil, err
		}
	}
	w.close()
	after, err := loadrun.ScrapeMetrics(hc, srv.url)
	if err != nil {
		return nil, err
	}

	var hits, misses, tracedOps, builtInWindow int
	var hitMs, missMs, utils, traced, untraced, waits []float64
	var checks []func() error
	for _, c := range clients {
		hits += c.hits
		misses += c.misses
		builtInWindow += c.builtInWindow
		tracedOps += len(c.traced)
		hitMs = append(hitMs, c.hitMs...)
		missMs = append(missMs, c.missMs...)
		utils = append(utils, c.utilities[:min(len(c.utilities), utilityPerClient)]...)
		traced = append(traced, c.traced...)
		untraced = append(untraced, c.untraced...)
		waits = append(waits, c.queueWaitMs...)
		for _, ch := range c.checks {
			checks = append(checks, c.libraryCheck(ch))
		}
	}
	o.extra("plan_refills", float64(refills), "count")
	o.extra("bodies_built_in_window", float64(builtInWindow), "count")
	delta := func(k string) float64 { return after[k] - before[k] }
	srvHits, srvMisses := delta("hiposerve_cache_hits_total"), delta("hiposerve_cache_misses_total")
	if int(srvHits) != hits || int(srvMisses) != misses {
		o.fail("server counted %v hits / %v misses, clients saw %d / %d", srvHits, srvMisses, hits, misses)
	}
	for _, check := range checks {
		if err := check(); err != nil {
			o.fail("library check: %v", err)
		}
	}
	o.extra("library_checks", float64(len(checks)), "count")

	if cfg.trace {
		o.Attempted += len(traced) + len(untraced)
		layerMetrics(o, rec, tracedOps)
		if hits+misses > 0 {
			o.set("solvecache.hit_ratio", srvHits/(srvHits+srvMisses), "1")
		}
		for _, stage := range []string{"discretize", "pdcs", "greedy"} {
			lbl := `{stage="` + stage + `"}`
			if n := delta("hiposerve_solve_stage_seconds_count" + lbl); n > 0 {
				o.set("serve.stage_ms."+stage, delta("hiposerve_solve_stage_seconds_sum"+lbl)/n*1e3, "ms")
				o.Samples["serve.stage_ms."+stage] = int(n)
			}
		}
		if len(waits) > 0 {
			o.set("jobs.queue_wait_ms", mean(waits), "ms")
			o.Samples["jobs.queue_wait_ms"] = len(waits)
		}
		o.set("bench.trace_overhead_ratio", percentile(traced, 0.5)/percentile(untraced, 0.5)-1, "1")
		o.Samples["bench.trace_overhead_ratio"] = len(traced)
		return o, nil
	}
	o.set("setup_s", setup, "s")
	w.report(o)
	o.set("utility", mean(utils), "1")
	o.Samples["utility"] = len(utils)
	o.extra("hit_ms.p50", percentile(hitMs, 0.5), "ms")
	o.Samples["hit_ms.p50"] = len(hitMs)
	o.extra("miss_ms.p50", percentile(missMs, 0.5), "ms")
	o.Samples["miss_ms.p50"] = len(missMs)
	if hits+misses > 0 {
		o.extra("hit_share", float64(hits)/float64(hits+misses), "1")
	}
	return o, nil
}

// libraryCheck returns the check of one sampled miss response: the library
// re-solves the same scenario (a chain's after its mutations) and must give
// byte-identical placement JSON.
func (c *serveClient) libraryCheck(ch libCheck) func() error {
	return func() error {
		var sc *hipo.Scenario
		if ch.chain {
			it, err := c.chainItem(ch.n)
			if err != nil {
				return err
			}
			inc, err := it.Scenario.NewIncremental()
			if err == nil {
				err = inc.Apply(it.Mutations...)
			}
			if err != nil {
				return fmt.Errorf("mutate: %w", err)
			}
			sc = inc.Scenario()
		} else {
			m, err := c.scenario(ch.n)
			if err != nil {
				return err
			}
			sc = corpus.ToPublic(m)
		}
		return checkAgainstLibrary(sc, ch.body)
	}
}

// checkAgainstLibrary solves sc with the library and requires its placement
// JSON to equal body byte for byte.
func checkAgainstLibrary(sc *hipo.Scenario, body []byte) error {
	p, err := sc.Solve(hipo.WithEps(serveEps))
	if err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	want, err := json.Marshal(p)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, body) {
		return fmt.Errorf("server placement differs from the library's")
	}
	return nil
}
