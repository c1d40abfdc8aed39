package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"divflow/internal/model"
	"divflow/internal/server"
)

// The http-mixed workload puts the whole request path under load: an
// in-process server on the real clock, served through Handler() by an
// in-process HTTP transport, the write-ahead log on (default fsync setting), strict deadline admission,
// two weighted tenants, and a uniform fleet split round-robin into two
// shards, so least-backlog routing and work stealing are live. The machines
// are fast enough that the backlog stays small and each re-solve is cheap,
// so HTTP/JSON, the router, shardlink, the WAL, obs and the admission LP
// carry the cost.
//
// Load is open-loop: submissions and reads are due on independent Poisson
// schedules fixed by the seed, and each request is timed from its due time,
// so a stall also charges the requests queued behind it. About half of the
// jobs carry a deadline taken from the server's clock; tight ones are
// answered 422 with a counter-offer. Reads — a job's status, a recent window
// of the schedule, and the service stats — take the shard mutex just as
// submissions do. Two clients send the requests, so at most two are in
// flight at a time.
//
// Requests reach the handler through the client's transport rather than a
// loopback socket: on the measuring VM the kernel's loopback round trip was
// over half of a submission's median latency, and its run-to-run variation
// pushed that median's spread between seeds past a quarter. What remains is
// the program's own request path: JSON, the handler, the router,
// shardlink, the shard mutex, the WAL and obs. The workload runs on one Go
// processor, so the hand-offs between the dispatcher, the two clients and
// the shard loops stay inside the Go scheduler.

const (
	submitsPerSecond = 80.0
	readsPerSecond   = 80.0
	httpMachines     = 4
	// httpSpeed is the machines' speed in work units per second: a job of
	// the largest size runs in 50 ms on one machine, so the fleet idles
	// about 40% of the time at the offered load.
	httpSpeed   = 80
	httpClients = 2
)

// dispatchSpin is how early the dispatcher wakes before a due time.
const dispatchSpin = 2 * time.Millisecond

var httpTenants = []byte(`{"tenants":[{"name":"alpha","weight":"2"},{"name":"beta","weight":"1"}]}`)

// httpOp is one generated request.
type httpOp struct {
	At     float64 `json:"at"`   // due time, seconds after the load starts
	Kind   string  `json:"kind"` // submit, job, schedule or stats
	Size   int     `json:"size,omitempty"`
	Weight int     `json:"weight,omitempty"`
	Tenant string  `json:"tenant,omitempty"`
	// SlackMS, when positive, sets the deadline to the server's now plus
	// this many milliseconds.
	SlackMS int `json:"slackMs,omitempty"`
	// Pick selects which accepted job a status read asks for, as a fraction
	// of the jobs accepted so far.
	Pick float64 `json:"pick,omitempty"`
}

// httpInputs merges the submission and read schedules of one run.
func httpInputs(seed int64, seconds float64) []httpOp {
	rng := rand.New(rand.NewSource(seed))
	sizes := &blockStream{rng: rng, block: []int{1, 2, 3, 4}}
	weights := &blockStream{rng: rng, block: weightBlock}
	tenants := &blockStream{rng: rng, block: []int{0, 0, 1}}
	deadlines := &blockStream{rng: rng, block: []int{0, 1}}
	reads := &blockStream{rng: rng, block: []int{0, 0, 0, 1, 2}}

	var ops []httpOp
	for t := rng.ExpFloat64() / submitsPerSecond; t < seconds; t += rng.ExpFloat64() / submitsPerSecond {
		op := httpOp{At: t, Kind: "submit", Size: sizes.next(), Weight: weights.next(),
			Tenant: []string{"alpha", "beta"}[tenants.next()]}
		if deadlines.next() == 1 {
			op.SlackMS = 20 + rng.Intn(480)
		}
		ops = append(ops, op)
	}
	var rs []httpOp
	for t := rng.ExpFloat64() / readsPerSecond; t < seconds; t += rng.ExpFloat64() / readsPerSecond {
		rs = append(rs, httpOp{At: t, Kind: []string{"job", "schedule", "stats"}[reads.next()], Pick: rng.Float64()})
	}
	// Merge the two sorted schedules.
	out := make([]httpOp, 0, len(ops)+len(rs))
	for len(ops) > 0 || len(rs) > 0 {
		if len(rs) == 0 || (len(ops) > 0 && ops[0].At <= rs[0].At) {
			out, ops = append(out, ops[0]), ops[1:]
		} else {
			out, rs = append(out, rs[0]), rs[1:]
		}
	}
	return out
}

// httpFleet is the uniform fleet; every machine hosts the one databank.
func httpFleet() []model.Machine {
	ms := make([]model.Machine, httpMachines)
	for i := range ms {
		ms[i] = model.Machine{Name: fmt.Sprintf("u%d", i), InverseSpeed: big.NewRat(1, httpSpeed), Databanks: []string{"nr"}}
	}
	return ms
}

// httpServer is one server under test and the client that reaches it.
type httpServer struct {
	srv    *server.Server
	clock  *server.RealClock
	client *http.Client
	walDir string
}

// handlerTransport is an http.RoundTripper that serves each request with a
// handler in-process.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// serverURL is the base URL of the requests; handlerTransport ignores it.
const serverURL = "http://divflowd"

// newHTTPServer builds and starts a fresh server whose WAL lives in walDir
// (a path the server creates), and answers once the first request can be
// sent: /healthz has answered 200.
func newHTTPServer(tr *tracer, walDir string) (*httpServer, error) {
	tenants, err := model.ParseTenantConfig(httpTenants)
	if err != nil {
		return nil, err
	}
	clock := server.NewRealClock()
	srv, err := server.New(server.Config{
		Machines: httpFleet(), Shards: 2, Clock: clock, WALDir: walDir, Tenants: tenants,
	})
	if err != nil {
		os.RemoveAll(walDir)
		return nil, err
	}
	srv.Start()
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = &apiTrace{tr: tr, next: h}
	}
	s := &httpServer{srv: srv, clock: clock, client: &http.Client{Transport: handlerTransport{h}}, walDir: walDir}
	resp, err := s.client.Get(serverURL + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the server and removes the WAL directory.
func (s *httpServer) close() {
	s.srv.Close()
	os.RemoveAll(s.walDir)
}

// apiTrace wraps Handler() in the traced pass: one span per request, named
// after its route and parented to the client span named in the request's
// headers.
type apiTrace struct {
	tr   *tracer
	next http.Handler
}

func (a *apiTrace) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get("X-Perfbench-Req"), 10, 64)
	parent, err := strconv.Atoi(r.Header.Get("X-Perfbench-Span"))
	if err != nil {
		parent = -1
	}
	sp := a.tr.begin("server.api."+routeOf(r.Method, r.URL.Path), parent, req)
	a.next.ServeHTTP(w, r)
	a.tr.end(sp)
}

// apiRoutes are the routes the workload requests, as named by routeOf.
var apiRoutes = []string{"post_jobs", "get_job", "get_schedule", "get_stats"}

// routeOf names the route a request hits, as used in metric names.
func routeOf(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/jobs":
		return "post_jobs"
	case strings.HasPrefix(path, "/v1/jobs/"):
		return "get_job"
	case path == "/v1/schedule":
		return "get_schedule"
	case path == "/v1/stats":
		return "get_stats"
	}
	return "other"
}

// opResult is what one request did.
type opResult struct {
	latency  time.Duration // from the due time to the end of the response
	rtt      time.Duration // from sending to the end of the response
	status   int
	accepted int    // the job ID of a 202
	problem  string // a failed check; empty when the answer was correct
	transErr bool
	admitted *model.AdmissionCertificate // certificate of an accepted deadline job
	counter  bool                        // a 422 carrying a counter-offer
	shed     bool                        // a 429 tenant_over_quota with Retry-After
	// noOffer marks a deadline_infeasible 422 without a counter-offer, and
	// window brackets it on the server's clock. core.BestDeadline offers no
	// deadline when an admitted deadline can no longer be met; finish checks
	// that such a job was live during the request.
	noOffer bool
	window  [2]*big.Rat
}

// httpPass is one drive of the schedule against one server.
type httpPass struct {
	results []opResult
	wall    time.Duration // from the start of the schedule to the last answer
	lateMS  []float64
	ids     []int // accepted job IDs
	before  []promSample
	after   []promSample
	final   model.StatsResponse
	missed  int // admitted deadline jobs that missed their deadline
}

// driveHTTP plays the schedule open-loop: a dispatcher releases each op at
// its due time into a queue that two clients drain.
func driveHTTP(s *httpServer, ops []httpOp, tr *tracer) *httpPass {
	p := &httpPass{results: make([]opResult, len(ops)), lateMS: make([]float64, len(ops))}
	var mu sync.Mutex // guards p.ids
	// pick maps a status read's Pick fraction onto the jobs accepted so far.
	pick := func(u float64) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(p.ids) == 0 {
			return 0, false
		}
		return p.ids[int(u*float64(len(p.ids)))], true
	}
	// The queue holds every op so the dispatcher never waits on a busy
	// client: its lateness then measures the generator alone.
	queue := make(chan int, len(ops))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < httpClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				due := start.Add(time.Duration(ops[i].At * float64(time.Second)))
				r := s.do(ops[i], pick, int64(i), tr)
				r.latency = time.Since(due)
				p.results[i] = r
				if r.status == http.StatusAccepted {
					mu.Lock()
					p.ids = append(p.ids, r.accepted)
					mu.Unlock()
				}
			}
		}()
	}
	// The dispatcher's samples carry a profiler label so the CPU fold can
	// leave the load generator's own spinning out of the layer shares.
	pprof.Do(context.Background(), pprof.Labels(profileRole, roleDispatcher), func(context.Context) {
		for i := range ops {
			due := start.Add(time.Duration(ops[i].At * float64(time.Second)))
			// The Go timer can wake a sleeper a millisecond or more late,
			// which would show up in every latency; sleep to just short of
			// the due time and yield until it arrives.
			time.Sleep(time.Until(due) - dispatchSpin)
			for time.Now().Before(due) {
				runtime.Gosched()
			}
			p.lateMS[i] = ms(time.Since(due))
			queue <- i
		}
	})
	close(queue)
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// do sends one op and checks its answer.
func (s *httpServer) do(op httpOp, pick func(float64) (int, bool), req int64, tr *tracer) opResult {
	var method, path string
	var body []byte
	switch op.Kind {
	case "submit":
		sr := model.SubmitRequest{Size: strconv.Itoa(op.Size), Weight: strconv.Itoa(op.Weight),
			Databanks: []string{"nr"}, Tenant: op.Tenant}
		if op.SlackMS > 0 {
			dl := new(big.Rat).Add(s.clock.Now(), big.NewRat(int64(op.SlackMS), 1000))
			sr.Deadline = dl.RatString()
		}
		method, path = http.MethodPost, "/v1/jobs"
		body, _ = json.Marshal(sr) // a SubmitRequest always marshals
	case "job":
		method, path = http.MethodGet, "/v1/stats"
		if id, ok := pick(op.Pick); ok {
			path = "/v1/jobs/" + strconv.Itoa(id)
		}
	case "schedule":
		since := new(big.Rat).Sub(s.clock.Now(), big.NewRat(1, 1))
		method, path = http.MethodGet, "/v1/schedule?since="+since.RatString()
	default:
		method, path = http.MethodGet, "/v1/stats"
	}
	hreq, err := http.NewRequest(method, serverURL+path, bytes.NewReader(body))
	if err != nil {
		return opResult{transErr: true, problem: err.Error()}
	}
	span := tr.begin("client."+routeOf(method, hreq.URL.Path), -1, req)
	defer tr.end(span)
	if tr != nil {
		hreq.Header.Set("X-Perfbench-Req", strconv.FormatInt(req, 10))
		hreq.Header.Set("X-Perfbench-Span", strconv.Itoa(span))
	}
	sent, sentServer := time.Now(), s.clock.Now()
	resp, err := s.client.Do(hreq)
	if err != nil {
		return opResult{transErr: true, problem: err.Error()}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := opResult{status: resp.StatusCode, rtt: time.Since(sent)}
	if err != nil {
		r.transErr, r.problem = true, err.Error()
		return r
	}
	switch {
	case resp.StatusCode >= 500:
		r.problem = fmt.Sprintf("%s %s: %d %s", method, path, resp.StatusCode, data)
	case op.Kind != "submit":
		if resp.StatusCode != http.StatusOK {
			r.problem = fmt.Sprintf("%s %s: %d %s", method, path, resp.StatusCode, data)
		}
	case resp.StatusCode == http.StatusAccepted:
		var sr model.SubmitResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			r.problem = fmt.Sprintf("202 body: %v", err)
		}
		r.accepted, r.admitted = sr.ID, sr.Admission
		if op.SlackMS > 0 && (sr.Admission == nil || !sr.Admission.Feasible) {
			r.problem = fmt.Sprintf("deadline job %d accepted without a feasible certificate", sr.ID)
		}
	default:
		var er model.ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil {
			r.problem = fmt.Sprintf("%d body: %v", resp.StatusCode, err)
			break
		}
		switch {
		case resp.StatusCode == http.StatusUnprocessableEntity && er.Error.Code == model.ErrCodeDeadlineInfeasible:
			r.counter = er.Error.Admission != nil && er.Error.Admission.CounterOffer != ""
			if !r.counter {
				r.noOffer, r.window = true, [2]*big.Rat{sentServer, s.clock.Now()}
			}
		case resp.StatusCode == http.StatusTooManyRequests && er.Error.Code == model.ErrCodeTenantOverQuota:
			r.shed = resp.Header.Get("Retry-After") != ""
			if !r.shed {
				r.problem = "tenant_over_quota without Retry-After"
			}
		default:
			r.problem = fmt.Sprintf("submit: unexpected %d %s", resp.StatusCode, data)
		}
	}
	return r
}

// finish checks what the pass left behind once the accepted jobs have run:
// every accepted ID resolves, no shard latched an error, and every 422
// without a counter-offer came while an admitted deadline job that went on
// to miss its deadline was live. It also records the final counters.
func (p *httpPass) finish(s *httpServer, res *outcome) error {
	deadline := time.Now().Add(30 * time.Second)
	for st := s.srv.Stats(); st.JobsCompleted < st.JobsAccepted; st = s.srv.Stats() {
		if st.LastError != "" || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	h := s.srv.Handler()
	var missed [][2]*big.Rat // live interval of each admitted job that missed its deadline
	for _, id := range p.ids {
		var st model.JobStatus
		if code, err := getJSON(h, "/v1/jobs/"+strconv.Itoa(id), &st); err != nil || code != http.StatusOK {
			res.fail("accepted job %d does not resolve: status %d: %v", id, code, err)
			continue
		}
		if st.DeadlineMet != nil && !*st.DeadlineMet {
			rel, _ := new(big.Rat).SetString(st.Release)
			done, _ := new(big.Rat).SetString(st.CompletedAt)
			missed = append(missed, [2]*big.Rat{rel, done})
		}
	}
	p.missed = len(missed)
	for _, r := range p.results {
		if !r.noOffer {
			continue
		}
		explained := false
		for _, m := range missed {
			if m[0] != nil && m[1] != nil && m[0].Cmp(r.window[1]) < 0 && m[1].Cmp(r.window[0]) > 0 {
				explained = true
				break
			}
		}
		if !explained {
			res.fail("deadline_infeasible without a counter-offer at %s while every admitted deadline was still meetable",
				r.window[0].FloatString(3))
		}
	}
	p.final = s.srv.Stats()
	if p.final.LastError != "" {
		res.failed++
		res.fail("server error: %s", p.final.LastError)
	}
	var err error
	p.after, err = scrapeMetrics(h)
	return err
}

// httpRun is one complete pass on the given server.
func httpRun(res *outcome, s *httpServer, ops []httpOp, tr *tracer) (*httpPass, error) {
	before, err := scrapeMetrics(s.srv.Handler())
	if err != nil {
		return nil, err
	}
	p := driveHTTP(s, ops, tr)
	p.before = before
	res.attempted += len(ops)
	for _, r := range p.results {
		if r.problem != "" {
			if r.transErr || r.status >= 500 || r.status == 0 {
				res.failed++
			}
			res.fail("%s", r.problem)
		}
	}
	return p, p.finish(s, res)
}

// latencies splits the pass's request latencies into submissions and reads.
func (p *httpPass) latencies(ops []httpOp) (submit, read []float64) {
	for i, r := range p.results {
		if ops[i].Kind == "submit" {
			submit = append(submit, ms(r.latency))
		} else {
			read = append(read, ms(r.latency))
		}
	}
	return submit, read
}

func runHTTP(o *options) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Every server gets a WAL directory of its own under walRoot; creating
	// it is part of the server's set-up, making walRoot is not.
	walRoot, err := os.MkdirTemp("", "perfbench-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walRoot)
	servers := 0
	walDir := func() string {
		servers++
		return filepath.Join(walRoot, strconv.Itoa(servers))
	}
	// Set-up generates the inputs, as the offline workload's does, and
	// brings up a server.
	var ops []httpOp
	s, setupS, err := medianSetup(func() (*httpServer, error) {
		ops = httpInputs(o.seed, o.seconds)
		return newHTTPServer(nil, walDir())
	}, func(s *httpServer) { s.close() })
	if err != nil {
		return nil, err
	}
	res := newOutcome()
	p, err := httpRun(res, s, ops, nil)
	s.close()
	if err != nil {
		return nil, err
	}
	submit, read := p.latencies(ops)
	fmt.Fprintf(o.log, "http-mixed: %d submits (%d accepted), %d reads; p99 generator lag %.2fms\n",
		len(submit), len(p.ids), len(read), pct(p.lateMS, 99))
	if o.trace {
		return res, traceHTTP(o, res, ops, p, walDir())
	}
	res.set("setup_s", setupS, "s")
	res.set("ops_per_s", float64(len(submit))/p.wall.Seconds(), "1/s")
	res.set("op_ms_p50", pct(submit, 50), "ms")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	return res, nil
}

// traceHTTP plays the same schedule on a fresh server with spans and the CPU
// profile on, and reports the per-layer metrics.
func traceHTTP(o *options, res *outcome, ops []httpOp, plain *httpPass, walDir string) error {
	tr := newTracer()
	s, err := newHTTPServer(tr, walDir)
	if err != nil {
		return err
	}
	prof, err := startProfile()
	if err != nil {
		s.close()
		return err
	}
	p, err := httpRun(res, s, ops, tr)
	raw := prof.stop()
	s.close()
	if err != nil {
		return err
	}
	shares, err := writeTrace(filepath.Join(o.out, fmt.Sprintf("http-mixed-seed%d", o.seed)), tr, raw)
	if err != nil {
		return err
	}

	var rtt []float64
	handler := map[int64]float64{}
	for _, route := range apiRoutes {
		d := tr.durations("server.api." + route)
		res.set("server.api.handler_ms_p50."+route, pct(d, 50), "ms")
		res.set("server.api.handler_ms_p99."+route, pct(d, 99), "ms")
	}
	tr.mu.Lock()
	for _, sp := range tr.spans {
		if sp.Parent >= 0 && strings.HasPrefix(sp.Name, "server.api.") {
			handler[sp.Req] = float64(sp.End-sp.Start) / 1e6
		}
	}
	tr.mu.Unlock()
	var submits, accepted, checks, rejects, counters, shed float64
	for i, r := range p.results {
		if h, ok := handler[int64(i)]; ok && r.rtt > 0 {
			rtt = append(rtt, ms(r.rtt)-h)
		}
		if ops[i].Kind != "submit" {
			continue
		}
		submits++
		if r.status == http.StatusAccepted {
			accepted++
		}
		if r.admitted != nil || r.counter || r.noOffer {
			checks++
		}
		if r.counter || r.noOffer {
			rejects++
		}
		if r.counter {
			counters++
		}
		if r.shed {
			shed++
		}
	}
	delta := func(name string) float64 { return promSum(p.after, name) - promSum(p.before, name) }
	res.set("net.rtt_self_ms_p50", pct(rtt, 50), "ms")
	res.set("shardlink.calls_per_submit", ratio(delta("divflow_shardlink_calls_total"), submits), "count")
	res.set("server.steals", float64(p.final.StolenJobs), "count")
	// The shard engines' counters, from the traced pass's final stats.
	st := p.final
	res.set("sim.events", float64(st.Events), "count")
	res.set("sim.lp_solves", float64(st.LPSolves), "count")
	res.set("sim.plan_cache_hits", float64(st.PlanCacheHits), "count")
	res.set("sim.cache_hit_ratio", ratio(float64(st.PlanCacheHits), float64(st.Events)), "ratio")
	res.set("lp.float_verified", float64(st.Solver.FloatVerified), "count")
	res.set("lp.crossovers", float64(st.Solver.Crossovers), "count")
	res.set("lp.fallbacks", float64(st.Solver.Fallbacks), "count")
	res.set("lp.warm_hits", float64(st.Solver.WarmHits), "count")
	res.set("lp.warm_hit_ratio", ratio(float64(st.Solver.WarmHits), float64(st.Solver.WarmHits+st.Solver.WarmMisses)), "ratio")
	res.set("core.solve_ms_p99", 1000*promQuantile(p.after, "divflow_solve_seconds", 99), "ms")
	res.set("core.solve_share", ratio(delta("divflow_solve_seconds_sum"), p.wall.Seconds()), "ratio")
	res.set("server.shard.submit_admit_ms_p50", 1000*promQuantile(p.after, "divflow_submit_admit_seconds", 50), "ms")
	res.set("server.shard.submit_admit_ms_p99", 1000*promQuantile(p.after, "divflow_submit_admit_seconds", 99), "ms")
	res.set("core.solve_s_total", delta("divflow_solve_seconds_sum"), "s")
	res.set("core.admission_checks", checks, "count")
	res.set("core.admission_rejects", rejects, "count")
	res.set("core.counter_offers", counters, "count")
	res.set("wal.appends_per_submit", ratio(delta("divflow_wal_appends_total"), accepted), "count")
	res.set("wal.snapshots", delta("divflow_wal_snapshots_total"), "count")
	res.set("obs.journal_events_per_submit", ratio(delta("divflow_journal_events_total"), submits), "count")
	res.set("server.router.tenant_shed", shed, "count")
	res.set("server.deadlines_missed", float64(p.missed), "count")
	res.set("gen.late_ms_p99", pct(p.lateMS, 99), "ms")
	setShares(res, shares)
	// The request latencies and the schedule's quality come from the
	// untraced pass.
	submit, read := plain.latencies(ops)
	res.set("submit_ms_p50", pct(submit, 50), "ms")
	res.set("submit_ms_p99", pct(submit, 99), "ms")
	res.set("read_ms_p50", pct(read, 50), "ms")
	res.set("read_ms_p99", pct(read, 99), "ms")
	if mwf, ok := new(big.Rat).SetString(plain.final.MaxWeightedFlow); ok {
		v, _ := mwf.Float64()
		res.set("max_weighted_flow", v, "s")
	}
	res.set("mean_flow_s", plain.final.MeanFlow, "s")
	all := func(q *httpPass) []float64 {
		s, r := q.latencies(ops)
		return append(s, r...)
	}
	res.set("trace_overhead_pct", 100*(pct(all(p), 50)/pct(all(plain), 50)-1), "%")
	return nil
}
