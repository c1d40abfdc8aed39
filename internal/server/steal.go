package server

import (
	"fmt"
	"math/big"
	"sort"

	"divflow/internal/obs"
	"divflow/internal/shardlink"
)

// Cross-shard work stealing. PR 3's router pins a job to the shard it was
// routed to, so once load shifts an idle shard cannot help an overloaded
// one — exactly the flexibility the divisible-load model exists to exploit.
// The steal protocol closes that gap: an idle shard asks the server for
// work, and the server migrates jobs (queued or live, with their exact
// remaining fractions) from the largest-backlog shard whose databanks the
// thief hosts. Migrated jobs keep their global ID, flow origin, and every
// piece of work already executed; the forwarding table makes the move
// invisible on the wire.

// stealFor migrates work onto an idle thief shard, trying donors in order
// of decreasing backlog. It reports whether any job moved. Donors come from
// the *active* topology: retired shards have nothing left to give, and a
// retired thief refuses the adopt.
func (s *Server) stealFor(thief *shard) bool {
	type cand struct {
		sh   *shard
		work *big.Rat
	}
	var cands []cand
	for _, sh := range s.active() {
		if sh == thief {
			continue
		}
		// The routing key crosses the shardlink boundary: for an in-process
		// shard this is exactly residualWork (same exact value, no transport
		// on the path), for a worker-hosted shard it is the only way to see
		// the backlog at all.
		ri, err := sh.link.RouteInfo(shardlink.RouteInfoArgs{})
		if err != nil {
			continue
		}
		if ri.Backlog.Sign() > 0 {
			cands = append(cands, cand{sh, copyRat(ri.Backlog)})
		}
	}
	sort.SliceStable(cands, func(a, b int) bool {
		return cands[a].work.Cmp(cands[b].work) > 0
	})
	for _, c := range cands {
		if s.stealFrom(thief, c.sh) {
			return true
		}
	}
	return false
}

// stealFrom moves up to half of the donor's jobs — those the thief can host,
// largest remaining work first — onto the thief, through the migration ops
// on the two shards' links: the donor reserves the jobs, the thief adopts
// them (or, if it went busy or retired while the messages were in flight,
// the donor takes them back), and the donor commits. No moment holds two
// shard mutexes, so the exchange works the same whether the donor is a
// goroutine away or a process away.
//
// The exchange runs under a reshardMu TryLock: retired/closed only flip
// under reshardMu, so holding it pins both shards' dispositions across the
// multi-message window, and it keeps every snapshot (which takes reshardMu
// too) off a half-done migration. TryLock, not Lock — a shard loop must
// never block behind a reshard, and skipping one steal attempt is free.
func (s *Server) stealFrom(thief, donor *shard) bool {
	if !s.reshardMu.TryLock() {
		return false
	}
	defer s.reshardMu.Unlock()
	// Timed end to end: the donor-side catch-up and any re-solve it
	// triggers are the real cost of a steal.
	start := s.tel.now()
	ex, err := donor.link.ExtractJobs(shardlink.ExtractArgs{ThiefMachines: thief.machines})
	if err != nil || len(ex.Jobs) == 0 {
		return false
	}
	locals := fromLocals(ex.Jobs)
	ad, aerr := thief.link.AdmitMigrated(shardlink.AdmitArgs{Jobs: ex.Jobs, Reason: migrateSteal, From: donor.idx})
	if aerr != nil || !ad.Accepted || len(ad.Locals) != len(ex.Jobs) {
		// Give-back: the donor re-queues the reserved jobs with their exact
		// remaining fractions; no work was lost or duplicated.
		_ = donor.link.AbortExtract(shardlink.AbortArgs{Locals: locals})
		return false
	}
	if err := donor.link.CommitExtract(shardlink.CommitArgs{Locals: locals}); err != nil {
		// The transport died between adopt and commit: the thief owns the
		// jobs (the forwarding table already says so); the donor keeps
		// reserved records that never run again. Nothing to unwind that
		// would not lose work.
		s.tel.event(obs.EventShardStall, -1, -1,
			fmt.Sprintf("steal commit to shard %d failed: %v", donor.idx, err))
	}
	if !start.IsZero() {
		thief.obs.steal.Observe(thief.obs.sinceSeconds(start))
	}
	// Both loops re-arm: the donor's next event changed (stolen completions
	// vanished), and the thief has fresh pending work to admit.
	_ = donor.link.Poke(shardlink.PokeArgs{})
	_ = thief.link.Poke(shardlink.PokeArgs{})
	return true
}

// stealCensus takes the census of the shard's stealable jobs — everything
// pending or live that the host predicate accepts — and selects the
// migration set: largest remaining work first (ties to the oldest job), and
// never more than half the shard's jobs, so the donor keeps at least as much
// as it gives away. Callers hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) stealCensus(hosts func([]string) bool) []*jobRecord {
	// The census counts everything pending plus everything live — including
	// jobs the thief cannot host, which still anchor the half-rule below.
	total := len(sh.pending) + sh.eng.Live()
	if total < 2 {
		// A donor running its only job gains nothing from losing it; moving
		// it would just relocate the same serial work (and invite the donor
		// to steal it straight back).
		return nil
	}
	type item struct {
		rec  *jobRecord
		work *big.Rat // size · remaining: the exact work that would move
	}
	var items []item
	for _, rec := range sh.pending {
		if !hosts(rec.databanks) {
			continue
		}
		work := new(big.Rat).Set(rec.size)
		if rec.remaining != nil {
			work.Mul(work, rec.remaining)
		}
		items = append(items, item{rec, work})
	}
	for _, id := range sh.eng.LiveIDs() {
		rec := sh.records[id]
		if !hosts(rec.databanks) {
			continue
		}
		items = append(items, item{rec, new(big.Rat).Mul(rec.size, sh.eng.Remaining(id))})
	}
	sort.SliceStable(items, func(a, b int) bool {
		if c := items[a].work.Cmp(items[b].work); c != 0 {
			return c > 0
		}
		return items[a].rec.id < items[b].rec.id
	})
	recs := make([]*jobRecord, 0, total/2)
	for _, it := range items {
		if len(recs) == total/2 {
			break
		}
		recs = append(recs, it.rec)
	}
	return recs
}

// queuedAndLive lists every job the shard still owes work on: the pending
// queue in order, then the live jobs in engine (RemoveAll) order. Callers
// hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) queuedAndLive() []*jobRecord {
	recs := append([]*jobRecord(nil), sh.pending...)
	for _, id := range sh.eng.LiveIDs() {
		recs = append(recs, sh.records[id])
	}
	return recs
}
