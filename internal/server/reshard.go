package server

import (
	"errors"
	"fmt"
	"math/big"
	"sort"
	"strconv"
	"strings"

	"divflow/internal/model"
	"divflow/internal/obs"
	"divflow/internal/shardlink"
	"divflow/internal/sim"
)

// Live re-sharding. The databank-connectivity partition is computed from the
// platform document, and until now it was computed exactly once, at startup:
// a replication or migration event that changes which hosts carry which
// databanks silently invalidated the sharding (work stealing softens load
// imbalance, but it cannot change shard *membership*). Reshard closes that
// gap by re-solving the partition quasi-statically, at runtime, against an
// updated platform:
//
//  1. recompute the partition over the new platform's machines;
//  2. diff it against the live shard set — a new group whose ordered
//     machine list (name, speed, databanks) is identical to a running
//     shard's keeps that shard untouched, engine, executed trace, plan
//     cache, warm-start basis chain and all;
//  3. retire every unmatched shard, migrating its queued and live jobs —
//     exact remaining fractions, original global IDs and flow origins —
//     onto the new topology through the same reserve/adopt/commit cores
//     work stealing uses;
//  4. spawn loops for the new groups and advance the topology generation,
//     so new global IDs decode through the new shard count while old IDs
//     keep resolving through the generation that issued them.
//
// A reshard whose platform induces the partition already running is a no-op:
// nothing migrates, the generation does not advance, and the server is
// pinned trace-identical to one that never resharded.

// sigField appends one field in a length-prefixed encoding, so no choice of
// machine or databank name (nothing validates them against delimiter
// characters) can make two different configurations encode identically.
func sigField(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}

// machineSignature is one machine's scheduling-relevant identity: a shard
// may only be kept across a reshard if its machines are pairwise identical
// under this signature (same name, same exact speed, same databank list in
// the same order — a databank permutation is treated as a change, which
// costs at most a spurious respawn, never a wrong keep).
func machineSignature(b *strings.Builder, m *model.Machine) {
	sigField(b, m.Name)
	sigField(b, m.InverseSpeed.RatString())
	b.WriteString(strconv.Itoa(len(m.Databanks)))
	b.WriteByte(';')
	for _, d := range m.Databanks {
		sigField(b, d)
	}
}

// groupSignature is the ordered identity of a whole machine group.
func groupSignature(machines []model.Machine) string {
	var b strings.Builder
	for i := range machines {
		machineSignature(&b, &machines[i])
	}
	return b.String()
}

// hostsAny reports whether some machine of the slice hosts every databank.
func hostsAny(machines []model.Machine, databanks []string) bool {
	for i := range machines {
		if machines[i].Hosts(databanks) {
			return true
		}
	}
	return false
}

// placement is one destination's share of a drained shard's jobs.
type placement struct {
	dest *shard
	jobs []shardlink.MigratedJob
}

// placeJobs chooses the destination of every job leaving a retired shard:
// the host with the least residual work (resid, which grows as jobs land),
// the rule the router applies to submissions. A shard with a latched
// scheduling error only takes a job when no healthy shard hosts it — a
// poisoned loop has the smallest backlog precisely because it stopped
// executing, and parking work there would strand it silently — and the
// returned warning says so. Jobs no shard hosts are left out, with a
// warning (a reshard's placement check rules them out beforehand). The plan
// lists destinations in first-use order, each with its jobs in input order.
func placeJobs(jobs []shardlink.MigratedJob, dests []*shard, resid map[*shard]*big.Rat) ([]*placement, string) {
	stalled := make(map[*shard]string, len(dests))
	for _, sh := range dests {
		_, stalled[sh], _ = sh.routeInfo()
	}
	var plan []*placement
	byDest := make(map[*shard]*placement)
	warning := ""
	for _, mj := range jobs {
		var dest, destStalled *shard
		for _, sh := range dests {
			if !sh.hosts(mj.Databanks) {
				continue
			}
			if stalled[sh] != "" {
				if destStalled == nil || resid[sh].Cmp(resid[destStalled]) < 0 {
					destStalled = sh
				}
				continue
			}
			if dest == nil || resid[sh].Cmp(resid[dest]) < 0 {
				dest = sh
			}
		}
		if dest == nil {
			dest = destStalled
			if warning == "" && dest != nil {
				warning = fmt.Sprintf("job %d migrated to stalled shard %d (no healthy shard hosts databanks %v): %s",
					mj.GID, dest.idx, mj.Databanks, stalled[dest])
			}
		}
		if dest == nil {
			if warning == "" {
				warning = fmt.Sprintf("job %d: no shard hosts databanks %v", mj.GID, mj.Databanks)
			}
			continue
		}
		resid[dest].Add(resid[dest], mj.Size)
		p := byDest[dest]
		if p == nil {
			p = &placement{dest: dest}
			byDest[dest] = p
			plan = append(plan, p)
		}
		p.jobs = append(p.jobs, mj)
	}
	return plan, warning
}

// fromLocals lists the donor-side local slots of reserved jobs.
func fromLocals(jobs []shardlink.MigratedJob) []int {
	locals := make([]int, len(jobs))
	for i := range jobs {
		locals[i] = jobs[i].FromLocal
	}
	return locals
}

// renumberRetired rewrites every non-active shard's machine indices into the
// new fleet, matching machines by name: the merged /v1/schedule interprets
// all pieces against the current platform, and without the remap a retired
// shard's history would keep indices into a fleet document that no longer
// exists — one response mixing two numbering schemes. Machines absent from
// the new platform keep their historical index (there is no right answer for
// a machine that left). Each mu is taken alone, after the topology publish,
// so lock ordering is trivial; active shards were renumbered by the caller.
func (s *Server) renumberRetired(newFleet []model.Machine, active []*shard) {
	nameIdx := make(map[string]int, len(newFleet))
	for i := range newFleet {
		if _, dup := nameIdx[newFleet[i].Name]; !dup {
			nameIdx[newFleet[i].Name] = i
		}
	}
	isActive := make(map[*shard]bool, len(active))
	for _, sh := range active {
		isActive[sh] = true
	}
	for _, sh := range s.allShards() {
		if isActive[sh] {
			continue
		}
		sh.mu.Lock()
		for i := range sh.machineIdx {
			if ni, ok := nameIdx[sh.machines[i].Name]; ok {
				sh.machineIdx[i] = ni
			}
		}
		sh.mu.Unlock()
	}
}

// Reshard repartitions the running fleet against an updated platform
// document (the POST /v1/platform admin API and the daemon's SIGHUP reload
// both land here). It is atomic: either the whole new topology is installed
// with every affected job migrated, or — when some queued or live job's
// databanks are hosted by no machine of the new platform — nothing changes
// and an error describes the stranded job. Reads racing the reshard stay
// exact: every migrated job's forwarding entry is written while the donor's
// mutex is held, so a read that decoded the job's birth shard arithmetically
// retries through the forwarding table exactly like a read racing a steal.
//
//divflow:locks ascending=shard
func (s *Server) Reshard(p *model.Platform) (model.ReshardResponse, error) {
	var resp model.ReshardResponse
	if s.noReshard {
		return resp, ErrReshardDisabled
	}
	if len(s.workers) > 0 {
		// A worker-hosted shard's engine lives in another process: retiring
		// it would need a cross-process drain-and-migrate protocol this
		// release does not have (ROADMAP: partial-fleet failure semantics).
		// Refusing keeps the invariant that remote shards never retire, which
		// steals onto and off worker shards rely on.
		return resp, errors.New("server: live re-sharding is not supported with worker-hosted shards; restart the fleet to repartition")
	}
	if p == nil || len(p.Machines) == 0 {
		return resp, errors.New("server: reshard: no machines")
	}
	for i := range p.Machines {
		if p.Machines[i].InverseSpeed == nil || p.Machines[i].InverseSpeed.Sign() <= 0 {
			return resp, fmt.Errorf("server: reshard: machine %d (%s) needs InverseSpeed > 0", i, p.Machines[i].Name)
		}
	}
	// One topology change at a time; Close takes the same lock, so a closing
	// server cannot race a reshard spawning loops the shutdown would miss.
	// s.shardsCfg is read and written under it too.
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return resp, ErrClosed
	}
	if err := s.dur.latchedErr(); err != nil {
		// Freeze-and-serve: scheduling continues on a latched WAL, but a
		// topology change the log cannot record would make the next restore
		// replay onto the wrong topology.
		return resp, fmt.Errorf("%w: %v", errWALDegraded, err)
	}

	// A platform without its own "shards" field inherits the server's
	// standing override (Config.Shards, or the last explicit reshard
	// override), exactly as the startup platform did: an operator
	// re-POSTing the daemon's own unchanged platform file to a `-shards N`
	// server must get a no-op, not a surprise repartition to connectivity
	// components. An explicit "shards" in the document always wins, and
	// becomes the new standing override once the reshard succeeds.
	shardCount := p.Shards
	if shardCount == 0 {
		shardCount = s.shardsCfg
	}
	groups, err := partitionFleet(p.Machines, shardCount)
	if err != nil {
		return resp, err
	}

	act := s.active()

	newFleet := append([]model.Machine(nil), p.Machines...)
	groupMachines := make([][]model.Machine, len(groups))
	for gi, group := range groups {
		ms := make([]model.Machine, len(group))
		for k, fi := range group {
			ms[k] = newFleet[fi]
		}
		groupMachines[gi] = ms
	}

	// Diff the new partition against the live shard set: first-fit matching
	// on identical ordered machine signatures. Matched shards are kept
	// as-is; unmatched running shards retire; unmatched groups spawn.
	keep := make([]*shard, len(groups))
	used := make([]bool, len(act))
	for gi := range groups {
		sig := groupSignature(groupMachines[gi])
		for ai, sh := range act {
			if !used[ai] && groupSignature(sh.machines) == sig {
				used[ai], keep[gi] = true, sh
				break
			}
		}
	}
	var retiring []*shard
	for ai, sh := range act {
		if !used[ai] {
			retiring = append(retiring, sh)
		}
	}
	spawnCount := 0
	for _, sh := range keep {
		if sh == nil {
			spawnCount++
		}
	}

	if spawnCount == 0 && len(retiring) == 0 {
		// No-op: the new platform induces the partition already running.
		// Refresh the fleet numbering (the document may reorder machines)
		// and touch nothing else — no generation bump, no migration, so the
		// server stays trace-identical to one that never resharded.
		for gi, sh := range keep {
			sh.mu.Lock()
			sh.machineIdx = append([]int(nil), groups[gi]...)
			sh.mu.Unlock()
		}
		if p.Shards > 0 {
			s.shardsCfg = p.Shards // under reshardMu, like every reader
		}
		s.topoMu.Lock()
		resp.Generation = len(s.gens) - 1
		s.topoMu.Unlock()
		s.renumberRetired(newFleet, act)
		resp.ShardCount = len(act)
		resp.Noop = true
		for _, sh := range act {
			resp.KeptShards = append(resp.KeptShards, sh.idx)
		}
		return resp, nil
	}

	// Structural reshard, timed end to end (catch-ups, migration, topology
	// publish) for the divflow_reshard_migration_seconds histogram.
	start := s.tel.now()

	// Catch every retiring shard up to the present
	// first, each under its own mu alone: its engine may be asleep at its
	// last event with an allocation that has been (notionally) executing
	// since, and extracting remaining fractions at that stale time would
	// retroactively discard all of that work. Doing it here keeps the
	// event-driven exact re-solves this can trigger out of the all-shards
	// critical section below — the repeat catch-up inside the section then
	// has at most the sliver since this one to cover.
	for _, sh := range retiring {
		sh.mu.Lock()
		if !sh.closed && sh.lastErr == nil {
			sh.catchUp()
		}
		sh.mu.Unlock()
	}

	// Lock every active shard in creation order — the global acquisition
	// order every multi-shard lock sweep (this and snapshotLocked) uses.
	byIdx := append([]*shard(nil), act...)
	sort.Slice(byIdx, func(a, b int) bool { return byIdx[a].idx < byIdx[b].idx })
	for _, sh := range byIdx {
		sh.mu.Lock()
	}
	locked := append([]*shard(nil), byIdx...)
	unlock := func() {
		for i := len(locked) - 1; i >= 0; i-- {
			locked[i].mu.Unlock()
		}
	}
	for _, sh := range retiring {
		if !sh.closed && sh.lastErr == nil {
			sh.catchUp()
		}
	}

	// Atomic placement check before any mutation: every queued or live job
	// on a retiring shard must fit somewhere on the new topology.
	for _, donor := range retiring {
		for _, rec := range donor.queuedAndLive() {
			ok := false
			for gi := range groups {
				if hostsAny(groupMachines[gi], rec.databanks) {
					ok = true
					break
				}
			}
			if !ok {
				unlock()
				return resp, fmt.Errorf(
					"server: reshard rejected: job %d needs databanks %v, hosted by no machine of the new platform",
					rec.gid, rec.databanks)
			}
		}
	}

	// The new generation's ID base: strictly above every global ID any
	// current shard could have issued, so the newest-generation-whose-base-
	// fits decode rule stays unambiguous.
	base := 0
	for _, sh := range byIdx {
		if b := sh.gidBase + len(sh.records)*sh.stride + sh.pos + 1; b > base {
			base = b
		}
	}
	newStride := len(groups)

	// Construct every spawned shard's policy before mutating anything: a
	// constructor failure must leave the running topology untouched, not
	// kept shards half re-encoded under a generation that never publishes.
	policies := make(map[int]sim.Policy)
	for gi := range groups {
		if keep[gi] != nil {
			continue
		}
		pol, perr := NewPolicy(s.policyCfg)
		if perr != nil {
			unlock()
			return resp, perr
		}
		policies[gi] = pol
	}

	// Build the new shard list: re-encode kept shards in place, spawn fresh
	// loops for new groups. Spawned shards are locked immediately — their
	// records fill in below, and the moment a forwarding entry names them a
	// concurrent read may knock on their mutex. Creation indices continue
	// past every shard ever made, preserving the idx lock order (spawned
	// shards sort after every shard currently locked).
	nextIdx := len(s.allShards())
	var gen2, spawned []*shard
	for gi := range groups {
		if sh := keep[gi]; sh != nil {
			sh.gidBase, sh.stride, sh.pos = base, newStride, gi
			sh.machineIdx = append([]int(nil), groups[gi]...)
			gen2 = append(gen2, sh)
			resp.KeptShards = append(resp.KeptShards, sh.idx)
			continue
		}
		nsh := s.wireShard(newShard(nextIdx, gi, newStride, base, s.clock,
			groupMachines[gi], append([]int(nil), groups[gi]...), policies[gi], s.retention, s.admission))
		nextIdx++
		nsh.mu.Lock()
		locked = append(locked, nsh)
		gen2 = append(gen2, nsh)
		spawned = append(spawned, nsh)
		resp.SpawnedShards = append(resp.SpawnedShards, nsh.idx)
	}

	// Stamp the new generation on every member (all mus are held): events
	// and stats emitted from here on carry it. Retiring shards keep the
	// generation their service ended in. s.gens is stable under reshardMu,
	// so reading its length without topoMu is safe — we are its only writer.
	newGen := len(s.gens)
	for _, sh := range gen2 {
		sh.gen = newGen
	}

	// The topology record lands in the WAL before any migration that
	// references the new generation's shards, and before the publish: replay
	// rebuilds the generation first, then applies the recorded placements. A
	// crash in between leaves stranded jobs on retired donors, which restore
	// re-migrates with the same placement rule (repairRetired).
	if s.dur != nil {
		topoRec := &recTopo{
			Gen:       newGen,
			Base:      base,
			Stride:    newStride,
			Fleet:     encodeMachines(newFleet),
			ShardsCfg: p.Shards,
			At:        s.clock.Now(),
		}
		for gi, sh := range gen2 {
			ts := walTopoShard{Idx: sh.idx, MachineIdx: append([]int(nil), groups[gi]...)}
			if keep[gi] != nil {
				ts.Kept = true
			} else {
				ts.Machines = encodeMachines(groupMachines[gi])
			}
			topoRec.Shards = append(topoRec.Shards, ts)
		}
		for _, sh := range retiring {
			topoRec.Retired = append(topoRec.Retired, sh.idx)
		}
		s.dur.append(walTypeTopo, topoRec)
	}

	// Migrate every queued and live job off the retiring shards through the
	// migration cores, exactly as a steal would: per donor one reserve of the
	// whole shard (pending jobs first, then live ones in RemoveAll order),
	// one adopt per destination, one commit. Every shard's mu is held, so
	// the whole move is atomic to readers; a reshard never aborts.
	resid := make(map[*shard]*big.Rat, len(gen2))
	for _, sh := range gen2 {
		resid[sh] = sh.residualWork()
	}
	for _, donor := range retiring {
		donor.retired = true
		jobs, _ := donor.reserveLocked(donor.queuedAndLive(), false)
		plan, warning := placeJobs(jobs, gen2, resid)
		if resp.Warning == "" {
			resp.Warning = warning
		}
		for _, p := range plan {
			p.dest.adoptLocked(shardlink.AdmitArgs{Jobs: p.jobs, Reason: migrateReshard, From: donor.idx})
		}
		donor.commitLocked(fromLocals(jobs), migrateReshard)
		resp.MigratedJobs += len(jobs)
		resp.RetiredShards = append(resp.RetiredShards, donor.idx)
	}

	// Publish the new topology before releasing any shard mutex: the first
	// ID a re-encoded shard issues must already decode through the new
	// generation.
	if p.Shards > 0 {
		s.shardsCfg = p.Shards // under reshardMu, like every reader
	}
	s.topoMu.Lock()
	s.gens = append(s.gens, &generation{base: base, stride: newStride, shards: gen2})
	s.all = append(s.all, spawned...)
	s.reshards++
	resp.Generation = len(s.gens) - 1
	s.topoMu.Unlock()
	resp.ShardCount = len(gen2)
	unlock()

	s.tel.event(obs.EventReshard, newGen, -1, fmt.Sprintf(
		"%d shards (%d kept, %d spawned, %d retired), %d jobs migrated",
		len(gen2), len(resp.KeptShards), len(spawned), len(retiring), resp.MigratedJobs))
	if !start.IsZero() {
		s.tel.reshardSeconds.Observe(s.tel.sinceSeconds(start))
	}

	s.renumberRetired(newFleet, gen2)

	// Retiring shards' queues are empty and their live sets migrated; their
	// records keep serving reads of the pre-reshard history. Without a
	// retention policy nothing of that history will ever be released, so the
	// loop stops now; under retention the loop instead stays alive at one
	// wake-up per retention window, compacting the history down (and
	// releasing forwarding entries) until nothing is left, then exits on its
	// own — `-retention` keeps bounding memory across reshards. Spawned
	// loops start (or, on a not-yet-started server, wait for Start), and
	// every new-topology shard is poked: migrated jobs are pending on some
	// of them.
	for _, sh := range retiring {
		if s.retention == nil {
			sh.close()
		} else {
			sh.poke()
		}
	}
	// Re-read started *after* the topology publish: a Start racing this
	// reshard may have snapshotted the shard list before the spawned shards
	// were in it, and the stale value read at entry would then leave their
	// loops forever unlaunched. After the publish the race is benign in both
	// directions — shard.start is idempotent.
	//divflow:lockorder-ok unlock() above already dropped every shard mu; the checker cannot see through the stored func value
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		for _, sh := range spawned {
			sh.start()
		}
	}
	for _, sh := range gen2 {
		sh.poke()
	}
	return resp, nil
}
