package server

import (
	"fmt"
	"math/big"
	"net/rpc"

	"divflow/internal/obs"
	"divflow/internal/shardlink"
)

// This file is the server side of the shardlink boundary: the shard-level
// handlers behind every transport — the migration ops among them — plus the
// two Link implementations: localLink (direct calls into the shard under its
// mutex) and rpcLink (net/rpc over a loopback pipe or a worker's TCP
// socket). The
// router holds exactly one Link per shard and speaks to the shard only
// through it; which transport sits behind the Link is invisible above this
// file.

// Migration reasons carried in shardlink.AdmitArgs and the WAL.
const (
	migrateSteal   = "steal"
	migrateReshard = "reshard"
)

// Operation labels of the divflow_shardlink_calls_total counter and the
// divflow_shardlink_rpc_seconds histogram.
const (
	opSubmit        = "submit"
	opCheckDeadline = "check_deadline"
	opJobStatus     = "job_status"
	opSchedule      = "schedule"
	opStats         = "stats"
	opRouteInfo     = "route_info"
	opPoke          = "poke"
	opExtract       = "extract"
	opAdmit         = "admit"
	opCommit        = "commit"
	opAbort         = "abort"
)

var linkOps = []string{
	opSubmit, opCheckDeadline, opJobStatus, opSchedule, opStats, opRouteInfo, opPoke,
	opExtract, opAdmit, opCommit, opAbort,
}

// ---------------------------------------------------------------------------
// Shard-side operation handlers. These are what both transports ultimately
// invoke; each takes the shard's own mu and nothing beyond it.

// submitOp is shard.submit in message form: the error cases the router keys
// its control flow on (retired → re-route, closed → 503, no-host → 422,
// infeasible deadline → typed reject with the certificate) travel as a
// closed outcome enum, so they survive any transport.
func (sh *shard) submitOp(args shardlink.SubmitArgs) shardlink.SubmitReply {
	gid, cert, err := sh.submit(args.Job)
	switch {
	case err == nil:
		return shardlink.SubmitReply{GID: gid, Outcome: shardlink.OutcomeOK, Admission: cert}
	case err == errRetired:
		return shardlink.SubmitReply{Outcome: shardlink.OutcomeRetired}
	case err == ErrClosed:
		return shardlink.SubmitReply{Outcome: shardlink.OutcomeClosed}
	case err == errDeadline:
		return shardlink.SubmitReply{Outcome: shardlink.OutcomeDeadline, Admission: cert}
	default:
		return shardlink.SubmitReply{Outcome: shardlink.OutcomeNoHost, Err: err.Error()}
	}
}

// submitErr maps a SubmitReply back to the router's error vocabulary,
// restoring sentinel identity so Submit's retry loop and the HTTP status
// mapping behave identically on every transport.
func submitErr(rep shardlink.SubmitReply) (int, error) {
	switch rep.Outcome {
	case shardlink.OutcomeOK:
		return rep.GID, nil
	case shardlink.OutcomeRetired:
		return 0, errRetired
	case shardlink.OutcomeClosed:
		return 0, ErrClosed
	case shardlink.OutcomeDeadline:
		return 0, errDeadline
	default:
		return 0, fmt.Errorf("%s", rep.Err)
	}
}

// ---------------------------------------------------------------------------
// Migration. These four ops are the only code that moves a job between
// shards: a steal runs them as messages over the shard's link, a reshard and
// restore repair call their locked cores directly. reserve (donor) takes the
// jobs out of the engine and the pending queue, adopt (destination) gives
// them fresh records there, and commit (donor) retires the donor's records —
// or abort (donor) hands the work back. Each core touches its own shard
// alone, writes its own WAL record under that shard's mu, and is what replay
// runs for that record, so a live run and a restored one move jobs through
// the same code.

// extractJobs is the reserve op of a steal, on the donor: catch up, take the
// steal census against the thief's machines, and reserve the selection.
func (sh *shard) extractJobs(args shardlink.ExtractArgs) shardlink.ExtractReply {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed || sh.retired || sh.freed || sh.lastErr != nil {
		return shardlink.ExtractReply{}
	}
	// Remaining fractions must reflect everything (notionally) executed up
	// to the present, and the catch-up's re-solve must happen before the
	// census reads the engine.
	if _, ok := sh.catchUp(); !ok {
		return shardlink.ExtractReply{}
	}
	recs := sh.stealCensus(func(databanks []string) bool {
		return hostsAny(args.ThiefMachines, databanks)
	})
	jobs, removedLive := sh.reserveLocked(recs, true)
	return shardlink.ExtractReply{Jobs: jobs, RemovedLive: removedLive}
}

// reserveLocked is the reserve core, on the donor: recs leave the engine and
// the pending queue with their exact remaining fractions, stamped with the
// reservation time (every donor piece of the job ends by it, which fixes the
// record's later compaction). A reserved record stays readable at its
// pre-move state and its work stays in the donor's backlog until commit, so
// no read and no routing decision sees the job vanish mid-exchange. A
// selection covering the whole shard (a reshard drain) leaves the engine
// through RemoveAll, in its order. With replan set and a live job removed,
// the donor re-plans at once: the extraction invalidated its plan, and the
// machines that ran the jobs must not idle until its next event. Records
// neither live nor pending are skipped. Callers hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) reserveLocked(recs []*jobRecord, replan bool) ([]shardlink.MigratedJob, bool) {
	if len(recs) == 0 {
		return nil, false
	}
	queued := make(map[*jobRecord]bool, len(sh.pending))
	for _, rec := range sh.pending {
		queued[rec] = true
	}
	live := make(map[int]*big.Rat)
	if len(recs) == len(sh.pending)+sh.eng.Live() {
		for _, br := range sh.eng.RemoveAll() {
			live[br.ID] = br.Job.Remaining //divflow:ratalias-ok ownership transfer; the engine deleted the job
		}
	} else {
		for _, rec := range recs {
			if rj, err := sh.eng.Remove(rec.id); err == nil {
				live[rec.id] = rj.Remaining //divflow:ratalias-ok ownership transfer; the engine deleted the job
			}
		}
	}
	moved := make(map[*jobRecord]bool, len(recs))
	jobs := make([]shardlink.MigratedJob, 0, len(recs))
	for _, rec := range recs {
		rem, isLive := live[rec.id]
		if !isLive && !queued[rec] {
			continue
		}
		if isLive {
			rec.remaining = copyRat(rem)
		}
		moved[rec] = true
		for i := range sh.eligible {
			delete(sh.eligible[i], rec.id)
		}
		rec.migratedAt = sh.eng.Now()
		jobs = append(jobs, shardlink.MigratedJob{
			FromLocal: rec.id,
			GID:       rec.gid,
			Name:      rec.name,
			Weight:    copyRat(rec.weight),
			Size:      copyRat(rec.size),
			Release:   copyRat(rec.release),
			Remaining: copyRat(rec.remaining),
			Databanks: rec.databanks,
			Counted:   rec.counted,
			Deadline:  copyRat(rec.deadline),
			Tenant:    rec.tenant,
			SLAClass:  rec.slaClass,
		})
	}
	pending := sh.pending[:0]
	for _, rec := range sh.pending {
		if !moved[rec] {
			pending = append(pending, rec)
		}
	}
	sh.pending = pending
	decide := replan && len(live) > 0
	if sh.wal != nil {
		r := &recReserve{Shard: sh.idx, At: sh.eng.Now(), Decide: decide}
		for _, mj := range jobs {
			r.Locals = append(r.Locals, mj.FromLocal)
			r.Remainings = append(r.Remainings, mj.Remaining)
		}
		sh.wal.append(walTypeReserve, r)
	}
	if decide && sh.lastErr == nil {
		sh.decide()
	}
	return jobs, len(live) > 0
}

// admitMigrated is the adopt op of a steal, on the thief. Accepted=false —
// the shard retired, closed, or latched an error while the exchange was in
// flight, or went busy — tells the router to abort the donor's reservation:
// stealing onto a shard that already has work helps nobody.
func (sh *shard) admitMigrated(args shardlink.AdmitArgs) shardlink.AdmitReply {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed || sh.retired || sh.lastErr != nil || sh.eng.Live() > 0 || len(sh.pending) > 0 {
		return shardlink.AdmitReply{}
	}
	return shardlink.AdmitReply{Accepted: true, Locals: sh.adoptLocked(args)}
}

// adoptLocked is the adopt core, on the destination: every job gets a fresh
// record under its original global ID, flow origin and exact remaining
// fraction, queued for admission at the shard's next wake-up; its work joins
// the shard's backlog and the forwarding table points its ID here. It
// returns the local slots the jobs received. Callers hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) adoptLocked(args shardlink.AdmitArgs) []int {
	if len(args.Jobs) == 0 {
		return nil
	}
	locals := make([]int, len(args.Jobs))
	for i, mj := range args.Jobs {
		rec := sh.adoptRecord(mj)
		locals[i] = rec.id
		verb := "stolen"
		if args.Reason == migrateReshard {
			sh.reshardIn++
			verb = "resharded"
		} else {
			sh.stolenIn++
		}
		sh.backlogMu.Lock()
		sh.backlog.Add(sh.backlog, rec.size)
		sh.tenantBacklogAdd(rec.tenant, rec.size)
		sh.backlogMu.Unlock()
		if sh.setForward != nil {
			sh.setForward(rec.gid, rec.id)
		}
		sh.obs.event(obs.EventMigrate, rec.gid, nil, fmt.Sprintf("%s from shard %d", verb, args.From))
	}
	if args.Reason == migrateSteal {
		sh.obs.event(obs.EventSteal, -1, sh.eng.Now(),
			fmt.Sprintf("%d jobs from shard %d", len(args.Jobs), args.From))
	}
	sh.wal.append(walTypeAdopt, &recAdopt{Shard: sh.idx, From: args.From, Reason: args.Reason, Jobs: args.Jobs, Locals: locals})
	return locals
}

// commitExtract is the commit op of a steal, on the donor.
func (sh *shard) commitExtract(args shardlink.CommitArgs) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.commitLocked(args.Locals, migrateSteal)
}

// commitLocked is the commit core, on the donor: the reserved records flip
// to the migrated state — readable only through the forwarding table, which
// the adopt already updated — queue for retention compaction, and their work
// leaves the donor's backlog. Callers hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) commitLocked(locals []int, reason string) {
	recs := sh.reserved(locals)
	for _, rec := range recs {
		rec.state = StateMigrated
		sh.migratedIDs = append(sh.migratedIDs, rec.id)
		if reason == migrateReshard {
			sh.reshardOut++
		} else {
			sh.migratedOut++
		}
		sh.backlogMu.Lock()
		sh.backlog.Sub(sh.backlog, rec.size)
		sh.tenantBacklogSub(rec.tenant, rec.size)
		sh.backlogMu.Unlock()
	}
	if len(recs) > 0 {
		sh.wal.append(walTypeCommit, &recSettle{Shard: sh.idx, Locals: locals, Reason: reason})
	}
}

// abortExtract is the abort op of a steal, on the donor.
func (sh *shard) abortExtract(args shardlink.AbortArgs) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.abortLocked(args.Locals)
}

// abortLocked is the abort core, the give-back path on the donor: the
// reserved records re-enter the pending queue with their exact remaining
// fractions — re-admission through admitAll conserves every piece of
// executed work, under the record's original local ID (the engine accepts a
// removed ID back). Their work never left the backlog. Callers hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) abortLocked(locals []int) {
	recs := sh.reserved(locals)
	for _, rec := range recs {
		rec.migratedAt = nil
		sh.pending = append(sh.pending, rec)
		for i := range sh.machines {
			if sh.machines[i].Hosts(rec.databanks) {
				sh.eligible[i][rec.id] = true
			}
		}
	}
	if len(recs) > 0 {
		sh.wal.append(walTypeAbort, &recSettle{Shard: sh.idx, Locals: locals})
		sh.poke()
	}
}

// reserved resolves donor-side local slots to the records a commit or abort
// settles, skipping unknown slots and records already migrated. Callers hold
// sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) reserved(locals []int) []*jobRecord {
	var recs []*jobRecord
	for _, local := range locals {
		if sh.freed || local < 0 || local >= len(sh.records) || sh.records[local] == nil {
			continue
		}
		if rec := sh.records[local]; rec.state != StateMigrated {
			recs = append(recs, rec)
		}
	}
	return recs
}

// ---------------------------------------------------------------------------
// In-process transport.

// localLink is the in-process transport: direct calls into the shard under
// its own mutex, exactly the pre-boundary code path, plus the per-transport
// call counters. It never returns an error.
type localLink struct {
	sh    *shard
	calls map[string]*obs.Counter // op → prebuilt child; read-only after build
}

// linkCallCounters prebuilds one transport's counter children, so the hot
// paths increment an atomic instead of locking the family map per call.
func linkCallCounters(t *telemetry, transport string) map[string]*obs.Counter {
	m := make(map[string]*obs.Counter, len(linkOps))
	for _, op := range linkOps {
		m[op] = t.linkCalls.With(transport, op)
	}
	return m
}

func newLocalLink(t *telemetry, sh *shard) *localLink {
	return &localLink{sh: sh, calls: linkCallCounters(t, shardlink.TransportInproc)}
}

func (l *localLink) Transport() string { return shardlink.TransportInproc }

func (l *localLink) Submit(args shardlink.SubmitArgs) (shardlink.SubmitReply, error) {
	l.calls[opSubmit].Inc()
	return l.sh.submitOp(args), nil
}

func (l *localLink) CheckDeadline(args shardlink.CheckDeadlineArgs) (shardlink.CheckDeadlineReply, error) {
	l.calls[opCheckDeadline].Inc()
	return l.sh.checkDeadline(args), nil
}

func (l *localLink) JobStatus(args shardlink.JobStatusArgs) (shardlink.JobStatusReply, error) {
	l.calls[opJobStatus].Inc()
	st, known, migrated := l.sh.jobStatus(args.Local, args.GID)
	return shardlink.JobStatusReply{Status: st, Known: known, Migrated: migrated}, nil
}

func (l *localLink) Schedule(args shardlink.ScheduleArgs) (shardlink.ScheduleReply, error) {
	l.calls[opSchedule].Inc()
	pieces, now, makespan := l.sh.scheduleSnapshot(args.Since)
	return shardlink.ScheduleReply{Pieces: pieces, Now: now, Makespan: makespan}, nil
}

func (l *localLink) Stats(shardlink.StatsArgs) (shardlink.StatsSnapshot, error) {
	l.calls[opStats].Inc()
	return l.sh.statsSnapshot(), nil
}

func (l *localLink) RouteInfo(shardlink.RouteInfoArgs) (shardlink.RouteInfoReply, error) {
	l.calls[opRouteInfo].Inc()
	backlog, routeErr, tenants := l.sh.routeInfo()
	return shardlink.RouteInfoReply{Backlog: backlog, Err: routeErr, TenantBacklog: tenants}, nil
}

func (l *localLink) Poke(shardlink.PokeArgs) error {
	l.calls[opPoke].Inc()
	l.sh.poke()
	return nil
}

func (l *localLink) ExtractJobs(args shardlink.ExtractArgs) (shardlink.ExtractReply, error) {
	l.calls[opExtract].Inc()
	return l.sh.extractJobs(args), nil
}

func (l *localLink) AdmitMigrated(args shardlink.AdmitArgs) (shardlink.AdmitReply, error) {
	l.calls[opAdmit].Inc()
	return l.sh.admitMigrated(args), nil
}

func (l *localLink) CommitExtract(args shardlink.CommitArgs) error {
	l.calls[opCommit].Inc()
	l.sh.commitExtract(args)
	return nil
}

func (l *localLink) AbortExtract(args shardlink.AbortArgs) error {
	l.calls[opAbort].Inc()
	l.sh.abortExtract(args)
	return nil
}

// ---------------------------------------------------------------------------
// RPC transport.

// shardRPC is one shard's net/rpc service ("Shard<idx>"): the gob-decoded
// mirror of localLink, registered per shard on the loopback server and in
// worker processes. A handler is pinned to its own shard at registration —
// no message can name another shard, so no handler can ever need a second
// shard's mutex; the lockorder analyzer enforces that shape through the
// boundary facts below.
type shardRPC struct {
	sh *shard
}

//divflow:locks boundary=shardlink
func (r *shardRPC) Submit(args *shardlink.SubmitArgs, reply *shardlink.SubmitReply) error {
	*reply = r.sh.submitOp(*args)
	return nil
}

//divflow:locks boundary=shardlink
func (r *shardRPC) CheckDeadline(args *shardlink.CheckDeadlineArgs, reply *shardlink.CheckDeadlineReply) error {
	*reply = r.sh.checkDeadline(*args)
	return nil
}

//divflow:locks boundary=shardlink
func (r *shardRPC) JobStatus(args *shardlink.JobStatusArgs, reply *shardlink.JobStatusReply) error {
	st, known, migrated := r.sh.jobStatus(args.Local, args.GID)
	*reply = shardlink.JobStatusReply{Status: st, Known: known, Migrated: migrated}
	return nil
}

//divflow:locks boundary=shardlink
func (r *shardRPC) Schedule(args *shardlink.ScheduleArgs, reply *shardlink.ScheduleReply) error {
	pieces, now, makespan := r.sh.scheduleSnapshot(args.Since)
	*reply = shardlink.ScheduleReply{Pieces: pieces, Now: now, Makespan: makespan}
	return nil
}

//divflow:locks boundary=shardlink
func (r *shardRPC) Stats(_ *shardlink.StatsArgs, reply *shardlink.StatsSnapshot) error {
	*reply = r.sh.statsSnapshot()
	return nil
}

//divflow:locks boundary=shardlink
func (r *shardRPC) RouteInfo(_ *shardlink.RouteInfoArgs, reply *shardlink.RouteInfoReply) error {
	backlog, routeErr, tenants := r.sh.routeInfo()
	*reply = shardlink.RouteInfoReply{Backlog: backlog, Err: routeErr, TenantBacklog: tenants}
	return nil
}

//divflow:locks boundary=shardlink
func (r *shardRPC) Poke(_ *shardlink.PokeArgs, _ *shardlink.PokeReply) error {
	r.sh.poke()
	return nil
}

//divflow:locks boundary=shardlink
func (r *shardRPC) ExtractJobs(args *shardlink.ExtractArgs, reply *shardlink.ExtractReply) error {
	*reply = r.sh.extractJobs(*args)
	return nil
}

//divflow:locks boundary=shardlink
func (r *shardRPC) AdmitMigrated(args *shardlink.AdmitArgs, reply *shardlink.AdmitReply) error {
	*reply = r.sh.admitMigrated(*args)
	return nil
}

//divflow:locks boundary=shardlink
func (r *shardRPC) CommitExtract(args *shardlink.CommitArgs, _ *shardlink.CommitReply) error {
	r.sh.commitExtract(*args)
	return nil
}

//divflow:locks boundary=shardlink
func (r *shardRPC) AbortExtract(args *shardlink.AbortArgs, _ *shardlink.AbortReply) error {
	r.sh.abortExtract(*args)
	return nil
}

// rpcLink speaks to a shardRPC service over one net/rpc client — a loopback
// pipe in Transport="rpc" mode, a worker's TCP socket in -worker fleets. The
// client multiplexes concurrent calls over the single connection.
type rpcLink struct {
	c     *rpc.Client
	svc   string // registered service name: "Shard<idx>"
	tel   *telemetry
	calls map[string]*obs.Counter
	lat   map[string]*obs.Histogram
}

func newRPCLink(t *telemetry, c *rpc.Client, svc string) *rpcLink {
	l := &rpcLink{
		c:     c,
		svc:   svc,
		tel:   t,
		calls: linkCallCounters(t, shardlink.TransportRPC),
		lat:   make(map[string]*obs.Histogram, len(linkOps)),
	}
	for _, op := range linkOps {
		l.lat[op] = t.rpcSeconds.With(op)
	}
	return l
}

func (l *rpcLink) Transport() string { return shardlink.TransportRPC }

// call is every RPC operation's round trip: counted per transport, timed
// into the RPC latency histogram (wall clock read only with telemetry on).
func (l *rpcLink) call(op, method string, args, reply any) error {
	l.calls[op].Inc()
	start := l.tel.now()
	err := l.c.Call(l.svc+"."+method, args, reply)
	if !start.IsZero() {
		l.lat[op].Observe(l.tel.sinceSeconds(start))
	}
	return err
}

func (l *rpcLink) Submit(args shardlink.SubmitArgs) (shardlink.SubmitReply, error) {
	var rep shardlink.SubmitReply
	err := l.call(opSubmit, "Submit", &args, &rep)
	return rep, err
}

func (l *rpcLink) CheckDeadline(args shardlink.CheckDeadlineArgs) (shardlink.CheckDeadlineReply, error) {
	var rep shardlink.CheckDeadlineReply
	err := l.call(opCheckDeadline, "CheckDeadline", &args, &rep)
	return rep, err
}

func (l *rpcLink) JobStatus(args shardlink.JobStatusArgs) (shardlink.JobStatusReply, error) {
	var rep shardlink.JobStatusReply
	err := l.call(opJobStatus, "JobStatus", &args, &rep)
	return rep, err
}

func (l *rpcLink) Schedule(args shardlink.ScheduleArgs) (shardlink.ScheduleReply, error) {
	var rep shardlink.ScheduleReply
	err := l.call(opSchedule, "Schedule", &args, &rep)
	return rep, err
}

func (l *rpcLink) Stats(args shardlink.StatsArgs) (shardlink.StatsSnapshot, error) {
	var rep shardlink.StatsSnapshot
	err := l.call(opStats, "Stats", &args, &rep)
	return rep, err
}

func (l *rpcLink) RouteInfo(args shardlink.RouteInfoArgs) (shardlink.RouteInfoReply, error) {
	var rep shardlink.RouteInfoReply
	err := l.call(opRouteInfo, "RouteInfo", &args, &rep)
	if err == nil && rep.Backlog == nil {
		// gob drops zero-value rationals; the router compares uncondition-
		// ally, so restore the exact zero here at the boundary.
		rep.Backlog = new(big.Rat)
	}
	return rep, err
}

func (l *rpcLink) Poke(args shardlink.PokeArgs) error {
	var rep shardlink.PokeReply
	return l.call(opPoke, "Poke", &args, &rep)
}

func (l *rpcLink) ExtractJobs(args shardlink.ExtractArgs) (shardlink.ExtractReply, error) {
	var rep shardlink.ExtractReply
	err := l.call(opExtract, "ExtractJobs", &args, &rep)
	return rep, err
}

func (l *rpcLink) AdmitMigrated(args shardlink.AdmitArgs) (shardlink.AdmitReply, error) {
	var rep shardlink.AdmitReply
	err := l.call(opAdmit, "AdmitMigrated", &args, &rep)
	return rep, err
}

func (l *rpcLink) CommitExtract(args shardlink.CommitArgs) error {
	var rep shardlink.CommitReply
	return l.call(opCommit, "CommitExtract", &args, &rep)
}

func (l *rpcLink) AbortExtract(args shardlink.AbortArgs) error {
	var rep shardlink.AbortReply
	return l.call(opAbort, "AbortExtract", &args, &rep)
}
