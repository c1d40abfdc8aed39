package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"divflow/internal/model"
	"divflow/internal/schedule"
	"divflow/internal/server"
	"divflow/internal/stats"
)

// The online-backlog workload measures the scheduler's own capacity: an
// in-process server.New on a VirtualClock with the default policy, so no
// run ever waits on the wall clock. The fleet is two disjoint databank
// islands of three heterogeneous machines each, which the server partitions
// into two shards with no job able to move between them; the executed trace
// is therefore a function of the inputs alone.
//
// Arrivals come per virtual tick, in the per-tick generation idiom of a
// load generator: each tick draws its arrival count from a block-shuffled
// pattern, and each arrival's databank follows a Zipf(1) law over the four
// banks, so the hot island (bank0, bank1) takes 72% of the jobs. The run
// repeats a cycle: a climb, in which the hot island is offered 1.8 times its
// capacity and its backlog climbs into the range where per-job cost grows
// several-fold per doubling, then a cool-down at a quarter of its capacity
// in which the backlog drains. The cold island stays light throughout. Counts,
// banks, sizes and weights are drawn as shuffled blocks of fixed multisets,
// so every seed offers the same load and run-to-run spread measures the
// scheduler rather than the draw.

// onlineFleet is the two-island platform: speeds 1, 2 and 3 on each island.
func onlineFleet() []model.Machine {
	var ms []model.Machine
	for isl, name := range []string{"hot", "cold"} {
		for i := 0; i < 3; i++ {
			ms = append(ms, model.Machine{
				Name:         fmt.Sprintf("%s%d", name, i),
				InverseSpeed: big.NewRat(1, int64(i+1)),
				Databanks:    []string{fmt.Sprintf("bank%d", 2*isl), fmt.Sprintf("bank%d", 2*isl+1)},
			})
		}
	}
	return ms
}

// Block patterns of the generator (see the workload comment above).
var (
	climbCounts = []int{1, 1, 2, 2}    // 1.5 arrivals per tick
	coolCounts  = []int{0, 0, 0, 0, 1} // 0.2 arrivals per tick
	bankBlock   = zipfBlock()          // 12, 6, 4, 3 of banks 0..3
	sizeBlock   = []int{8, 9, 10, 11, 12}
	weightBlock = []int{1, 2, 3}
)

// zipfBlock is the smallest block whose bank frequencies follow Zipf(1)
// over four banks: 1 : 1/2 : 1/3 : 1/4 = 12 : 6 : 4 : 3.
func zipfBlock() []int {
	var b []int
	for bank, n := range []int{12, 6, 4, 3} {
		for i := 0; i < n; i++ {
			b = append(b, bank)
		}
	}
	return b
}

// One cycle is a climb followed by a cool-down long enough for the hot
// island to drain, so cycles are nearly independent and a run averages
// over several of them.
const (
	climbTicks = 40
	coolTicks  = 50
	// cyclesPerSecond sizes a run from --seconds; it was calibrated so a run
	// takes about --seconds on a 2-vCPU 2.1 GHz Xeon.
	cyclesPerSecond = 0.35
)

// onlineJob is one generated submission.
type onlineJob struct {
	Tick   int `json:"tick"` // virtual release time
	Bank   int `json:"bank"`
	Size   int `json:"size"`
	Weight int `json:"weight"`
}

func (j onlineJob) hot() bool { return j.Bank < 2 }

// blockStream draws values from shuffled copies of block, one copy after
// the other.
type blockStream struct {
	rng   *rand.Rand
	block []int
	left  []int
}

func (s *blockStream) next() int {
	if len(s.left) == 0 {
		s.left = append([]int(nil), s.block...)
		s.rng.Shuffle(len(s.left), func(i, j int) { s.left[i], s.left[j] = s.left[j], s.left[i] })
	}
	v := s.left[0]
	s.left = s.left[1:]
	return v
}

// onlineInputs generates the job stream of one run.
func onlineInputs(seed int64, seconds float64) []onlineJob {
	rng := rand.New(rand.NewSource(seed))
	climb := &blockStream{rng: rng, block: climbCounts}
	cool := &blockStream{rng: rng, block: coolCounts}
	banks := &blockStream{rng: rng, block: bankBlock}
	sizes := &blockStream{rng: rng, block: sizeBlock}
	weights := &blockStream{rng: rng, block: weightBlock}
	cycles := max(1, int(math.Round(cyclesPerSecond*seconds)))
	var jobs []onlineJob
	for t := 1; t <= cycles*(climbTicks+coolTicks); t++ {
		n := cool.next()
		if (t-1)%(climbTicks+coolTicks) < climbTicks {
			n = climb.next()
		}
		for i := 0; i < n; i++ {
			jobs = append(jobs, onlineJob{Tick: t, Bank: banks.next(), Size: sizes.next(), Weight: weights.next()})
		}
	}
	return jobs
}

// onlineServer is one server under test with its clock and HTTP surface.
type onlineServer struct {
	srv *server.Server
	vc  *server.VirtualClock
	h   http.Handler
}

func newOnlineServer() (*onlineServer, error) {
	vc := server.NewVirtualClock()
	srv, err := server.New(server.Config{Machines: onlineFleet(), Clock: vc})
	if err != nil {
		return nil, err
	}
	if srv.ShardCount() != 2 {
		srv.Close()
		return nil, fmt.Errorf("two-island fleet partitioned into %d shards, want 2", srv.ShardCount())
	}
	srv.Start()
	return &onlineServer{srv: srv, vc: vc, h: srv.Handler()}, nil
}

// onlinePass is what one drive of the job stream measured.
type onlinePass struct {
	wall     time.Duration
	planMS   []float64 // Submit call until the job is admitted and planned
	ids      []int
	final    model.StatsResponse
	metrics  []promSample
	statuses []model.JobStatus
	executed *schedule.Schedule
	inst     *model.Instance
}

// driveOnline submits every job at its release tick, one at a time: the
// clock is advanced to the release, the job is submitted, and its own shard
// is polled through GET /v1/jobs/{id} until the job leaves "queued" — so
// each arrival is admitted and planned on its own, and the executed trace
// repeats exactly for a seed. Polling the job rather than Stats() keeps the
// other shard's locks out of the measurement. After the last release the
// clock is stepped timer by timer until every job has completed.
//
// A failed submission or poll, a latched shard error or a drain that does
// not finish ends the drive: it is recorded on res and the pass is nil.
func driveOnline(res *outcome, s *onlineServer, jobs []onlineJob, tr *tracer) *onlinePass {
	p := &onlinePass{}
	start := time.Now()
	for i, j := range jobs {
		s.vc.Advance(big.NewRat(int64(j.Tick), 1))
		req := &model.SubmitRequest{
			Size: strconv.Itoa(j.Size), Weight: strconv.Itoa(j.Weight),
			Databanks: []string{fmt.Sprintf("bank%d", j.Bank)},
		}
		root := tr.begin("online.job", -1, int64(i))
		sp := tr.begin("server.Submit", root, int64(i))
		t0 := time.Now()
		resp, err := s.srv.Submit(req)
		t1 := time.Now()
		tr.end(sp)
		if err != nil {
			tr.end(root)
			res.failed++
			res.fail("submit job %d: %v", i, err)
			return nil
		}
		path := "/v1/jobs/" + strconv.Itoa(resp.ID)
		for {
			sp := tr.begin("server.api.get_job", root, int64(i))
			var st model.JobStatus
			code, err := getJSON(s.h, path, &st)
			tr.end(sp)
			if err != nil || code != http.StatusOK {
				tr.end(root)
				res.failed++
				res.fail("poll job %d: status %d: %v", resp.ID, code, err)
				return nil
			}
			if st.State != server.StateQueued {
				break
			}
			// The poll blocks on the shard's mutex while the loop admits
			// and solves, so this only spins until the loop takes it; a
			// sleep would round every latency up to the timer's
			// millisecond granularity.
			runtime.Gosched()
		}
		t2 := time.Now()
		tr.record("server.shard.admit_wait", t1, t2, root, int64(i))
		tr.end(root)
		p.planMS = append(p.planMS, ms(t2.Sub(t0)))
		p.ids = append(p.ids, resp.ID)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := s.srv.Stats()
		if st.LastError != "" {
			res.failed++
			res.fail("shard error: %s", st.LastError)
			return nil
		}
		if st.JobsCompleted == len(jobs) {
			p.final = st
			break
		}
		if time.Now().After(deadline) {
			res.failed += len(jobs) - st.JobsCompleted
			res.fail("drain: %d of %d jobs completed", st.JobsCompleted, len(jobs))
			return nil
		}
		if !s.vc.AdvanceToNextTimer() {
			time.Sleep(20 * time.Microsecond)
		}
	}
	p.wall = time.Since(start)
	return p
}

// collect reads the finished run back through the HTTP surface: every job's
// status, the executed schedule and the /metrics exposition.
func (p *onlinePass) collect(h http.Handler) error {
	for _, id := range p.ids {
		var st model.JobStatus
		if code, err := getJSON(h, "/v1/jobs/"+strconv.Itoa(id), &st); err != nil || code != http.StatusOK {
			return fmt.Errorf("job %d: status %d: %v", id, code, err)
		}
		p.statuses = append(p.statuses, st)
	}
	var sr model.ScheduleResponse
	if code, err := getJSON(h, "/v1/schedule", &sr); err != nil || code != http.StatusOK {
		return fmt.Errorf("schedule: status %d: %v", code, err)
	}
	p.executed = &schedule.Schedule{}
	if err := json.Unmarshal(sr.Schedule, p.executed); err != nil {
		return fmt.Errorf("schedule: %w", err)
	}
	var err error
	p.metrics, err = scrapeMetrics(h)
	return err
}

// check validates the executed trace exactly: it rebuilds the instance from
// the served job statuses, maps the trace's global job IDs onto it and runs
// the divisible-model validator. Failures are recorded on res.
func (p *onlinePass) check(res *outcome, machines []model.Machine) {
	jobs := make([]model.Job, len(p.statuses))
	index := map[int]int{}
	for k, st := range p.statuses {
		if st.State != server.StateDone {
			res.fail("job %d ended %s, want done", st.ID, st.State)
			return
		}
		rel, ok1 := new(big.Rat).SetString(st.Release)
		w, ok2 := new(big.Rat).SetString(st.Weight)
		sz, ok3 := new(big.Rat).SetString(st.Size)
		if !ok1 || !ok2 || !ok3 {
			res.fail("job %d: unparseable status %+v", st.ID, st)
			return
		}
		jobs[k] = model.Job{Name: st.Name, Release: rel, Weight: w, Size: sz, Databanks: st.Databanks}
		index[st.ID] = k
	}
	// Submissions are in release order, so the instance keeps their order
	// (NewInstance sorts stably by release).
	inst, err := model.NewInstance(jobs, machines)
	if err != nil {
		res.fail("rebuild instance: %v", err)
		return
	}
	for i := range p.executed.Pieces {
		k, ok := index[p.executed.Pieces[i].Job]
		if !ok {
			res.fail("schedule piece runs unknown job %d", p.executed.Pieces[i].Job)
			return
		}
		p.executed.Pieces[i].Job = k
	}
	if err := p.executed.Validate(inst, schedule.Divisible, nil); err != nil {
		res.fail("executed schedule invalid: %v", err)
		return
	}
	p.inst = inst
	mwf, err := p.executed.MaxWeightedFlow(inst)
	if err != nil {
		res.fail("max weighted flow: %v", err)
		return
	}
	if mwf.RatString() != p.final.MaxWeightedFlow {
		res.fail("trace max weighted flow %s, /v1/stats says %s", mwf.RatString(), p.final.MaxWeightedFlow)
	}
}

// objective returns the executed schedule's max weighted flow and mean flow.
func (p *onlinePass) objective() (float64, float64) {
	mwf, err := p.executed.MaxWeightedFlow(p.inst)
	if err != nil {
		return 0, 0
	}
	flows, err := p.executed.Flows(p.inst)
	if err != nil {
		return 0, 0
	}
	var sum float64
	for _, f := range flows {
		v, _ := f.Float64()
		sum += v
	}
	m, _ := mwf.Float64()
	return m, sum / float64(len(flows))
}

// liveAtAdmission returns, for each submission, how many jobs of its island
// were in the system when it was admitted: it and every earlier submission
// to the island that had not completed by its release.
func (p *onlinePass) liveAtAdmission(jobs []onlineJob) []int {
	done := make([]*big.Rat, len(p.statuses))
	for k, st := range p.statuses {
		done[k], _ = new(big.Rat).SetString(st.CompletedAt)
	}
	live := make([]int, len(jobs))
	for k := range jobs {
		rel := big.NewRat(int64(jobs[k].Tick), 1)
		for i := 0; i <= k; i++ {
			if jobs[i].hot() == jobs[k].hot() && (i == k || done[i].Cmp(rel) > 0) {
				live[k]++
			}
		}
	}
	return live
}

// onlineRun is one complete pass on a fresh server: the drive, the
// read-back and the checks. Failures are recorded on res; the pass is nil
// when the drive or the read-back did not finish.
func onlineRun(res *outcome, s *onlineServer, jobs []onlineJob, tr *tracer) *onlinePass {
	defer s.srv.Close()
	res.attempted += len(jobs)
	p := driveOnline(res, s, jobs, tr)
	if p == nil {
		return nil
	}
	if err := p.collect(s.h); err != nil {
		res.fail("read-back: %v", err)
		return nil
	}
	p.check(res, onlineFleet())
	return p
}

func runOnline(o *options) (*outcome, error) {
	// A traced run drives the stream twice, so each pass gets half of
	// --seconds and the run takes about as long as a timed one.
	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	// Set-up generates the inputs, as the offline workload's does, and
	// brings up a server.
	var jobs []onlineJob
	s, setupS, err := medianSetup(func() (*onlineServer, error) {
		jobs = onlineInputs(o.seed, seconds)
		return newOnlineServer()
	}, func(s *onlineServer) { s.srv.Close() })
	if err != nil {
		return nil, err
	}
	res := newOutcome()
	p := onlineRun(res, s, jobs, nil)
	if p == nil {
		return res, nil
	}
	fmt.Fprintf(o.log, "online-backlog: %d jobs in %.1fs, %d LP solves, %d plan-cache hits\n",
		len(jobs), p.wall.Seconds(), p.final.LPSolves, p.final.PlanCacheHits)
	if o.trace {
		return res, traceOnline(o, res, jobs, p)
	}
	res.set("setup_s", setupS, "s")
	res.set("ops_per_s", float64(len(jobs))/p.wall.Seconds(), "1/s")
	res.set("op_ms_p50", pct(p.planMS, 50), "ms")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	return res, nil
}

// traceOnline drives the same job stream again on a fresh server with spans
// and the CPU profile on, and reports the per-layer metrics.
func traceOnline(o *options, res *outcome, jobs []onlineJob, plain *onlinePass) error {
	s, err := newOnlineServer()
	if err != nil {
		return err
	}
	tr := newTracer()
	prof, err := startProfile()
	if err != nil {
		s.srv.Close()
		return err
	}
	alloc0 := allocMB()
	p := onlineRun(res, s, jobs, tr)
	allocated := allocMB() - alloc0
	raw := prof.stop()
	if p == nil {
		return nil
	}
	shares, err := writeTrace(filepath.Join(o.out, fmt.Sprintf("online-backlog-seed%d", o.seed)), tr, raw)
	if err != nil {
		return err
	}

	st := p.final
	// The wall-clock figures come from the untraced pass; the schedule's
	// quality repeats exactly for a seed.
	mwf, mean := p.objective()
	res.set("jobs_per_s", float64(len(jobs))/plain.wall.Seconds(), "1/s")
	res.set("plan_ms_p50", pct(plain.planMS, 50), "ms")
	res.set("plan_ms_p95", pct(plain.planMS, 95), "ms")
	res.set("max_weighted_flow", mwf, "s")
	res.set("mean_flow_s", mean, "s")
	submit := tr.durations("server.Submit")
	admit := tr.durations("server.shard.admit_wait")
	res.set("server.router.submit_ms_p50", pct(submit, 50), "ms")
	res.set("server.router.submit_ms_p95", pct(submit, 95), "ms")
	res.set("server.shard.admit_wait_ms_p50", pct(admit, 50), "ms")
	res.set("server.shard.admit_wait_ms_p95", pct(admit, 95), "ms")
	res.set("sim.events", float64(st.Events), "count")
	res.set("sim.lp_solves", float64(st.LPSolves), "count")
	res.set("sim.plan_cache_hits", float64(st.PlanCacheHits), "count")
	res.set("sim.cache_hit_ratio", ratio(float64(st.PlanCacheHits), float64(st.Events)), "ratio")
	res.set("lp.float_verified", float64(st.Solver.FloatVerified), "count")
	res.set("lp.crossovers", float64(st.Solver.Crossovers), "count")
	res.set("lp.fallbacks", float64(st.Solver.Fallbacks), "count")
	res.set("lp.warm_hits", float64(st.Solver.WarmHits), "count")
	res.set("lp.warm_hit_ratio", ratio(float64(st.Solver.WarmHits), float64(st.Solver.WarmHits+st.Solver.WarmMisses)), "ratio")
	solveS := promSum(p.metrics, "divflow_solve_seconds_sum")
	res.set("core.solve_s_total", solveS, "s")
	res.set("core.solve_ms_p99", 1000*promQuantile(p.metrics, "divflow_solve_seconds", 99), "ms")
	res.set("core.solve_share", ratio(solveS, p.wall.Seconds()), "ratio")

	live := p.liveAtAdmission(jobs)
	var xs, ys []float64
	backlogMax := 0
	for k, j := range jobs {
		backlogMax = max(backlogMax, live[k])
		if j.hot() && admit[k] > 0 {
			xs = append(xs, math.Log(float64(live[k])))
			ys = append(ys, math.Log(admit[k]))
		}
	}
	res.set("server.backlog_max", float64(backlogMax), "count")
	if fit, err := stats.FitLinear(xs, ys); err == nil {
		res.set("sim.cost_exponent", fit.Slope, "slope")
	}
	res.set("alloc_mb_per_job", allocated/float64(len(jobs)), "MB")
	setShares(res, shares)
	res.set("trace_overhead_pct", 100*(p.wall.Seconds()/plain.wall.Seconds()-1), "%")
	return nil
}
