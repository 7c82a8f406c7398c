package shard

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/catfish-db/catfish/internal/exec"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// Replica is one server of a shard as the routing core drives it: a
// connected client of either transport. C is the caller's execution
// context — *sim.Proc on the simulated fabric, struct{} on real sockets.
type Replica[C any] interface {
	Search(ctx C, q geo.Rect) ([]wire.Item, wire.Method, error)
	Insert(ctx C, r geo.Rect, ref uint64) error
	Delete(ctx C, r geo.Rect, ref uint64) error
	Move(ctx C, from, to geo.Rect, ref uint64) error
	Nearest(ctx C, k int, x, y float64) ([]rtree.Neighbor, wire.Method, error)
	ExecBatch(ctx C, ops []wire.BatchOp, results []wire.BatchResult) []wire.BatchResult
	// Promote makes the replica its shard's primary at the given fencing
	// epoch.
	Promote(ctx C, epoch uint64) error
	// Alive reports whether the replica is heartbeating.
	Alive() bool
	// ReplicaState returns the fencing epoch and applied sequence the
	// replica last reported; elections prefer the most caught-up replica.
	ReplicaState() (epoch, applied uint64)
	// PredictedUtil is the replica's predicted CPU utilization.
	PredictedUtil() float64
	Stats() telemetry.ClientSnapshot
}

// Runtime binds the routing core to a transport's clock, concurrency and
// shard-liveness source.
type Runtime[C any] interface {
	Now(ctx C) time.Duration
	Sleep(ctx C, d time.Duration)
	// Fork runs fn(ctx, 0) on the caller and fn for every slot in [1, n)
	// concurrently, started in slot order, and returns once all have.
	Fork(ctx C, n int, fn func(ctx C, slot int))
	// Healthy reports shard s's liveness at now (true when the transport
	// tracks none).
	Healthy(s int, now time.Duration) bool
	// Promoted restarts shard s's liveness window after a promotion at
	// now: the promoted replica's own heartbeats take over from there.
	Promoted(s int, now time.Duration)
}

// overloadAttempts bounds the retry budget against an admission shed
// before ErrOverloaded surfaces to the caller; overloadBackoff is the first
// sleep, doubling per attempt (2, 4, 8 ms — long enough for a
// heartbeat-interval utilization spike to pass, short enough to stay inside
// interactive latency budgets).
const (
	overloadAttempts = 3
	overloadBackoff  = 2 * time.Millisecond
)

// Core makes every routing decision of a sharded deployment, for both
// transports (DESIGN.md §5.15): it scatters searches across the shards
// whose coverage intersects the query and merges the partial results,
// routes each write to its unique owning shard, gathers kNN best-first,
// sub-batches batches per shard, and runs the availability protocol —
// backup reads, shed back-off, and epoch-fenced promotion. A core serves
// one driving context at a time; per-operation scatter concurrency is
// internal.
type Core[C any, R Replica[C]] struct {
	rt       Runtime[C]
	readUtil float64

	// mu guards the shape (m, cands, active, epochs) against readers on
	// other goroutines; the driving context is the only writer.
	mu     sync.RWMutex
	m      *Map
	cands  [][]R    // per shard: replicas in preference order
	active []int    // index into cands[s] of the serving replica
	epochs []uint64 // epoch this router last knew the shard at

	// dedup turns on merged-result deduplication after the first map
	// adoption: between a reshard's commit and its drain the moved entries
	// exist on both the old and the new shard, so a scatter that hits both
	// must collapse duplicates.
	dedup bool
	stats RouterStats

	// Reused scatter/batch scratch (one driving context, so no locking).
	targets []int
	order   []int
	busy    []int
	gatherI [][]wire.Item
	gatherM []wire.Method
	gatherE []error
	subOps  [][]wire.BatchOp
	subIdx  [][]int // original op index per sub-op
	subRes  [][]wire.BatchResult
}

// NewCore builds a core over a validated map with one replica list per
// shard (the primary first) and each shard's starting epoch. readUtil, when
// > 0, routes a sub-search to the least-loaded live replica of its shard
// whenever the serving replica's predicted utilization exceeds it.
func NewCore[C any, R Replica[C]](rt Runtime[C], m *Map, cands [][]R, epochs []uint64, readUtil float64) *Core[C, R] {
	return &Core[C, R]{
		rt:       rt,
		readUtil: readUtil,
		m:        m,
		cands:    cands,
		active:   make([]int, len(cands)),
		epochs:   epochs,
	}
}

// Map returns the shard map currently routed by.
func (c *Core[C, R]) Map() *Map {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m
}

// Serving returns the replica serving shard s — the primary until a
// failover swaps in a promoted backup.
func (c *Core[C, R]) Serving(s int) R {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.cands[s][c.active[s]]
}

// Replicas returns every shard's replicas in preference order. The slices
// are never mutated: Adopt installs new ones.
func (c *Core[C, R]) Replicas() [][]R {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.cands
}

// Adopt installs successor map m: existing shard positions keep their
// replicas, and each position past the old map is served by one fresh
// replica at the matching epoch. From then on merged results are
// deduplicated. Only the real-socket router reshards live; the simulated
// fabric never adopts.
func (c *Core[C, R]) Adopt(m *Map, fresh []R, epochs []uint64) {
	old := c.m.K()
	cands := append(slices.Clone(c.cands), make([][]R, len(fresh))...)
	active := append(slices.Clone(c.active), make([]int, len(fresh))...)
	allEpochs := append(slices.Clone(c.epochs), epochs...)
	for i, rep := range fresh {
		cands[old+i] = []R{rep}
	}
	c.mu.Lock()
	c.m, c.cands, c.active, c.epochs = m, cands, active, allEpochs
	c.mu.Unlock()
	c.dedup = true
	atomic.AddUint64(&c.stats.MapAdoptions, 1)
}

// Stats returns a snapshot of the router's counters.
func (c *Core[C, R]) Stats() RouterStats {
	return RouterStats{
		Searches:        atomic.LoadUint64(&c.stats.Searches),
		Writes:          atomic.LoadUint64(&c.stats.Writes),
		Moves:           atomic.LoadUint64(&c.stats.Moves),
		KNNs:            atomic.LoadUint64(&c.stats.KNNs),
		Fanout:          atomic.LoadUint64(&c.stats.Fanout),
		Skipped:         atomic.LoadUint64(&c.stats.Skipped),
		UnhealthyWrites: atomic.LoadUint64(&c.stats.UnhealthyWrites),
		Promotions:      atomic.LoadUint64(&c.stats.Promotions),
		BackupReads:     atomic.LoadUint64(&c.stats.BackupReads),
		MapAdoptions:    atomic.LoadUint64(&c.stats.MapAdoptions),
	}
}

// Snapshot aggregates every replica's client counters into one unified
// snapshot.
func (c *Core[C, R]) Snapshot() telemetry.ClientSnapshot {
	var agg telemetry.ClientSnapshot
	for _, reps := range c.Replicas() {
		for _, rep := range reps {
			agg = agg.Add(rep.Stats())
		}
	}
	return agg
}

// failoverErr reports whether err should trigger replica fallback or
// promotion: the shared replica sentinels, plus a torn-down connection
// (the process died outright). ErrOverloaded is deliberately not a
// failover trigger — a shed means the server is alive but saturated, so
// the router retries with back-off instead of promoting.
func failoverErr(err error) bool {
	return replica.Failover(err) || errors.Is(err, wire.ErrClosed)
}

// retryShed re-runs op with doubling back-off while err, its latest
// outcome, is a shed, surfacing ErrOverloaded once the budget runs out.
func (c *Core[C, R]) retryShed(ctx C, err error, op func() error) error {
	backoff := overloadBackoff
	for attempt := 0; attempt < overloadAttempts && errors.Is(err, wire.ErrOverloaded); attempt++ {
		c.rt.Sleep(ctx, backoff)
		backoff *= 2
		err = op()
	}
	return err
}

// failover promotes the best remaining replica of shard s to a bumped
// epoch and makes it the serving one. The electorate is every live
// replica; the winner is the one with the highest applied sequence (ties
// to the lowest index, so every router elects the same successor). A
// replica that fails the promote round trip leaves the electorate and the
// election reruns. Reports whether a promotion succeeded.
func (c *Core[C, R]) failover(ctx C, s int) bool {
	reps := c.cands[s]
	if len(reps) <= 1 {
		return false
	}
	epoch := c.epochs[s] + 1
	applied := make([]uint64, len(reps))
	alive := make([]bool, len(reps))
	for i, rep := range reps {
		_, applied[i] = rep.ReplicaState()
		alive[i] = rep.Alive()
	}
	for range reps {
		idx := replica.PickSuccessor(applied, alive)
		if idx < 0 {
			return false
		}
		if err := reps[idx].Promote(ctx, epoch); err != nil {
			alive[idx] = false
			continue
		}
		c.mu.Lock()
		c.epochs[s] = epoch
		c.active[s] = idx
		c.mu.Unlock()
		c.rt.Promoted(s, c.rt.Now(ctx))
		atomic.AddUint64(&c.stats.Promotions, 1)
		return true
	}
	return false
}

// healthyTargets computes the scatter set for q, dropping unhealthy shards.
// The second result is false when every target was unhealthy.
func (c *Core[C, R]) healthyTargets(q geo.Rect, now time.Duration) ([]int, bool) {
	c.targets = c.m.Targets(q, c.targets)
	healthy := c.targets[:0]
	for _, t := range c.targets {
		// A replicated shard stays in the scatter set even when its serving
		// replica looks dead: searchShard falls back to a backup.
		if len(c.cands[t]) > 1 || c.rt.Healthy(t, now) {
			healthy = append(healthy, t)
		}
	}
	c.targets = healthy
	return healthy, len(healthy) > 0
}

// read runs op on shard s's serving replica with the fallbacks every
// sub-read gets. An admission shed first tries the shard's other live
// replicas when spread is set, then backs off on the serving one. A
// replica refusing service (killed, fenced, demoted, disconnected) hands
// the read to the shard's other replicas — backups answer reads without
// promotion, so read availability outlives a dying primary. Runs on
// scatter contexts: reads the shape, never mutates it.
func (c *Core[C, R]) read(ctx C, s int, spread bool, op func(R) error) error {
	reps, active := c.cands[s], c.active[s]
	err := op(reps[active])
	if errors.Is(err, wire.ErrOverloaded) {
		for i, rep := range reps {
			if !spread || i == active || !rep.Alive() {
				continue
			}
			berr := op(rep)
			if berr == nil {
				atomic.AddUint64(&c.stats.BackupReads, 1)
				return nil
			}
			if !errors.Is(berr, wire.ErrOverloaded) && !failoverErr(berr) {
				return berr
			}
		}
		err = c.retryShed(ctx, err, func() error { return op(reps[active]) })
	}
	if err == nil || !failoverErr(err) {
		return err
	}
	for i, rep := range reps {
		if i == active {
			continue
		}
		berr := op(rep)
		if berr == nil {
			atomic.AddUint64(&c.stats.BackupReads, 1)
			return nil
		}
		if !failoverErr(berr) {
			return berr
		}
	}
	return err
}

// searchShard runs one sub-search on shard s. A predicted-hot serving
// replica (past readUtil) hands the read to the least-loaded live replica;
// otherwise the search takes read's fallbacks.
func (c *Core[C, R]) searchShard(ctx C, s int, q geo.Rect) (items []wire.Item, m wire.Method, err error) {
	search := func(rep R) error {
		items, m, err = rep.Search(ctx, q)
		return err
	}
	reps, active := c.cands[s], c.active[s]
	if c.readUtil > 0 && len(reps) > 1 && reps[active].PredictedUtil() > c.readUtil {
		best := active
		for i, rep := range reps {
			if rep.Alive() && rep.PredictedUtil() < reps[best].PredictedUtil() {
				best = i
			}
		}
		if best != active && search(reps[best]) == nil {
			atomic.AddUint64(&c.stats.BackupReads, 1)
			return items, m, nil
		}
	}
	if err := c.read(ctx, s, true, search); err != nil {
		return nil, m, err
	}
	return items, m, nil
}

// knnShard runs one kNN sub-query on shard s with read's fallbacks. A shed
// backs off on the serving replica only.
func (c *Core[C, R]) knnShard(ctx C, s, k int, x, y float64) (nbrs []rtree.Neighbor, m wire.Method, err error) {
	if err := c.read(ctx, s, false, func(rep R) error {
		nbrs, m, err = rep.Nearest(ctx, k, x, y)
		return err
	}); err != nil {
		return nil, m, err
	}
	return nbrs, m, nil
}

// Search scatters q to every healthy shard whose coverage intersects it
// and merges the partial result sets in shard order. When every target
// shard is unhealthy the search returns an empty set: the router cannot
// answer it, but read availability degrades rather than blocking. The
// returned method is the first target's; per-shard methods are visible in
// the replicas' Stats.
func (c *Core[C, R]) Search(ctx C, q geo.Rect) ([]wire.Item, wire.Method, error) {
	atomic.AddUint64(&c.stats.Searches, 1)
	targets, ok := c.healthyTargets(q, c.rt.Now(ctx))
	if !ok {
		atomic.AddUint64(&c.stats.Skipped, 1)
		return nil, wire.MethodFast, nil
	}
	n := len(targets)
	atomic.AddUint64(&c.stats.Fanout, uint64(n))
	if n == 1 {
		return c.searchShard(ctx, targets[0], q)
	}
	c.gatherI = resize(c.gatherI, n)
	c.gatherM = resize(c.gatherM, n)
	c.gatherE = resize(c.gatherE, n)
	c.rt.Fork(ctx, n, func(ctx C, slot int) {
		c.gatherI[slot], c.gatherM[slot], c.gatherE[slot] = c.searchShard(ctx, targets[slot], q)
	})
	var items []wire.Item
	for slot := 0; slot < n; slot++ {
		if err := c.gatherE[slot]; err != nil {
			return nil, c.gatherM[slot], fmt.Errorf("shard %d: %w", targets[slot], err)
		}
		items = append(items, c.gatherI[slot]...)
	}
	if c.dedup {
		items = dedupItems(items)
	}
	return items, c.gatherM[0], nil
}

// Insert routes the insert to the owning shard, promoting a backup when
// the owner has stopped heartbeating and failing with UnhealthyError when
// no replica can take the write.
func (c *Core[C, R]) Insert(ctx C, rect geo.Rect, ref uint64) error {
	return c.write(ctx, rect, func(rep R) error { return rep.Insert(ctx, rect, ref) })
}

// Delete routes the delete to the owning shard like Insert.
func (c *Core[C, R]) Delete(ctx C, rect geo.Rect, ref uint64) error {
	return c.write(ctx, rect, func(rep R) error { return rep.Delete(ctx, rect, ref) })
}

// write runs op on the shard owning rect.
func (c *Core[C, R]) write(ctx C, rect geo.Rect, op func(R) error) error {
	owner, err := c.writeTarget(ctx, rect)
	if err != nil {
		return err
	}
	return c.writeShard(ctx, owner, op)
}

// writeTarget returns the shard owning rect. A lapsed liveness window is
// the failover trigger: the owner's best backup is promoted and takes the
// write. Without one the write fails with the unified UnhealthyError.
func (c *Core[C, R]) writeTarget(ctx C, rect geo.Rect) (int, error) {
	atomic.AddUint64(&c.stats.Writes, 1)
	owner := c.m.Owner(rect)
	if !c.rt.Healthy(owner, c.rt.Now(ctx)) && !c.failover(ctx, owner) {
		atomic.AddUint64(&c.stats.UnhealthyWrites, 1)
		return 0, &UnhealthyError{Shard: owner}
	}
	return owner, nil
}

// writeShard runs op against shard s's serving replica, promoting a backup
// and retrying when the server refuses service. Attempts are bounded by
// the replica count so a fully dead shard terminates with the unified
// UnhealthyError rather than looping. An admission shed retries the same
// replica with back-off — writes cannot move to a backup, and a saturated
// primary is not a dead one.
func (c *Core[C, R]) writeShard(ctx C, s int, op func(R) error) error {
	for failed := 0; ; failed++ {
		serving := func() error { return op(c.cands[s][c.active[s]]) }
		err := c.retryShed(ctx, serving(), serving)
		if err == nil || !failoverErr(err) {
			return err
		}
		if failed >= len(c.cands[s]) || !c.failover(ctx, s) {
			atomic.AddUint64(&c.stats.UnhealthyWrites, 1)
			return &UnhealthyError{Shard: s}
		}
	}
}

// Move relocates entry (from, ref) to (to, ref). When both positions are
// owned by the same shard it is a single MsgMove round trip, atomic under
// that server's tree latch. When the move crosses an ownership boundary no
// single latch covers it: the router inserts at the destination owner
// first and then deletes at the source owner, so a concurrent search may
// transiently observe the object twice but never absent. The source delete
// tolerates ErrNotFound — a move is an upsert, exactly like the
// single-shard MsgMove, so moving an object that was never inserted (or
// whose source copy a repaired retry already removed) degrades to a plain
// insert.
func (c *Core[C, R]) Move(ctx C, from, to geo.Rect, ref uint64) error {
	atomic.AddUint64(&c.stats.Moves, 1)
	if c.m.Owner(from) == c.m.Owner(to) {
		return c.write(ctx, to, func(rep R) error { return rep.Move(ctx, from, to, ref) })
	}
	if err := c.Insert(ctx, to, ref); err != nil {
		return err
	}
	if err := c.Delete(ctx, from, ref); !errors.Is(err, wire.ErrNotFound) {
		return err
	}
	return nil
}

// Nearest answers a k-nearest-neighbor query across the shards with a
// best-first gather: shards are visited in ascending order of CoverDistSq
// — the lower bound on any entry a shard can own — and the gather stops as
// soon as k results are held and the next shard's bound exceeds the
// current kth distance. On typical point queries that prunes the scatter
// to one or two shards, versus the full fan-out a range search needs.
// Partial results merge in (distance, ref) order and dedup by identity, so
// an entry dual-written during a reshard window counts once. An unhealthy
// shard without backups is skipped (counted in Stats().Skipped): kNN
// availability degrades like Search availability rather than blocking.
// The reported method is the first visited shard's (kNN never offloads, so
// it is fast or fetch).
func (c *Core[C, R]) Nearest(ctx C, k int, x, y float64) ([]rtree.Neighbor, wire.Method, error) {
	atomic.AddUint64(&c.stats.KNNs, 1)
	if k <= 0 {
		return nil, wire.MethodFast, rtree.ErrBadK
	}
	c.order = c.order[:0]
	for s := 0; s < c.m.K(); s++ {
		c.order = append(c.order, s)
	}
	slices.SortFunc(c.order, func(a, b int) int {
		return cmp.Or(cmp.Compare(c.m.CoverDistSq(a, x, y), c.m.CoverDistSq(b, x, y)), a-b)
	})
	method, visited := wire.MethodFast, false
	var best []rtree.Neighbor
	for _, s := range c.order {
		if len(best) >= k && c.m.CoverDistSq(s, x, y) > best[k-1].DistSq {
			break
		}
		if len(c.cands[s]) <= 1 && !c.rt.Healthy(s, c.rt.Now(ctx)) {
			atomic.AddUint64(&c.stats.Skipped, 1)
			continue
		}
		nbrs, m, err := c.knnShard(ctx, s, k, x, y)
		if err != nil {
			return nil, m, fmt.Errorf("shard %d: %w", s, err)
		}
		atomic.AddUint64(&c.stats.Fanout, 1)
		if !visited {
			method, visited = m, true
		}
		best = MergeNeighbors(best, nbrs, k)
	}
	return best, method, nil
}

// ExecBatch routes a batch through the shards: each search is duplicated
// into the sub-batch of every healthy shard whose coverage intersects it,
// each write goes into its owner's sub-batch (or fails immediately with
// UnhealthyError when the owner is down and no backup can be promoted),
// and the per-shard sub-batches execute as parallel client batches — each
// one a single ring write / TCP frame on its shard — before the partial
// result sets are merged back into submission order. Results reuses the
// caller's slice.
func (c *Core[C, R]) ExecBatch(ctx C, ops []wire.BatchOp, results []wire.BatchResult) []wire.BatchResult {
	results = results[:0]
	for range ops {
		results = append(results, wire.BatchResult{Method: wire.MethodFast})
	}
	if len(ops) == 0 {
		return results
	}
	now := c.rt.Now(ctx)
	k := len(c.cands)
	c.subOps = resetEach(c.subOps, k)
	c.subIdx = resetEach(c.subIdx, k)
	add := func(s, i int) {
		c.subOps[s] = append(c.subOps[s], ops[i])
		c.subIdx[s] = append(c.subIdx[s], i)
	}
	scatter := func(i int, q geo.Rect) {
		targets, ok := c.healthyTargets(q, now)
		if !ok {
			atomic.AddUint64(&c.stats.Skipped, 1)
			return
		}
		atomic.AddUint64(&c.stats.Fanout, uint64(len(targets)))
		for _, t := range targets {
			add(t, i)
		}
	}
	for i, op := range ops {
		switch op.Type {
		case wire.MsgMove:
			if c.m.Owner(op.Rect) != c.m.Owner(op.Rect2) {
				// A cross-owner move spans two shards' sub-batches, which no
				// single latch covers: run it through the routed two-write
				// path (insert at destination, delete at source) right away.
				// This executes ahead of the batch's deferred same-owner
				// sub-ops, so a cross-owner move is ordered against other
				// ops on the same entry only across ExecBatch calls — a
				// caller chaining several moves of one entry through a
				// single batch must keep the chain within one owner.
				results[i].Err = c.Move(ctx, op.Rect, op.Rect2, op.Ref)
				continue
			}
			atomic.AddUint64(&c.stats.Moves, 1)
			fallthrough
		case wire.MsgInsert, wire.MsgDelete:
			owner, err := c.writeTarget(ctx, op.Rect)
			if err != nil {
				results[i].Err = err
				continue
			}
			add(owner, i)
		case wire.MsgKNN:
			// A kNN's result set is not bounded by its (degenerate) query
			// rect, so it cannot ride the coverage-intersection scatter: fan
			// it to every healthy shard for a local k-best each, reduced to
			// the global k-best after the merge below. The batch trades the
			// single-op path's best-first pruning for staying on the batched
			// fast path.
			atomic.AddUint64(&c.stats.KNNs, 1)
			scatter(i, geo.Plane())
		default:
			atomic.AddUint64(&c.stats.Searches, 1)
			scatter(i, op.Rect)
		}
	}
	busy := c.busy[:0]
	for s := 0; s < k; s++ {
		if len(c.subOps[s]) > 0 {
			busy = append(busy, s)
		}
	}
	c.busy = busy
	if len(busy) == 0 {
		return results
	}
	c.subRes = resetEach(c.subRes, k)
	c.rt.Fork(ctx, len(busy), func(ctx C, slot int) {
		s := busy[slot]
		c.subRes[s] = c.cands[s][c.active[s]].ExecBatch(ctx, c.subOps[s], c.subRes[s])
	})
	// Merge in shard order; sub-ops of one original op keep shard order
	// too, so merged item order is deterministic.
	for _, s := range busy {
		for j, res := range c.subRes[s] {
			i := c.subIdx[s][j]
			if res.Err != nil && results[i].Err == nil {
				results[i].Err = fmt.Errorf("shard %d: %w", s, res.Err)
			}
			results[i].Items = append(results[i].Items, res.Items...)
			// Offloading is sticky so the merged method reports whether any
			// shard's sub-search ran as a client-side traversal.
			if results[i].Method != wire.MethodOffload {
				results[i].Method = res.Method
			}
		}
	}
	// Each shard answered a batched kNN with its own ascending k-best; the
	// global k-best is the distance-ordered, deduplicated head of the merged
	// union. Distances recompute bit-exactly from the round-tripped rects,
	// so the reduction matches a local Nearest over the union of the shards.
	// Operations that hit a replica refusing service or an admission shed
	// retry through the routed single-op paths, which fall back to a backup,
	// promote, or back off as the error class demands — inert on an
	// unreplicated deployment without admission control, where neither
	// error occurs.
	for i := range results {
		op, res := ops[i], &results[i]
		switch {
		case res.Err == nil && op.Type == wire.MsgKNN:
			res.Items = KBestItems(res.Items, int(op.Ref), op.Rect)
		case res.Err != nil && (failoverErr(res.Err) || errors.Is(res.Err, wire.ErrOverloaded)):
			*res = exec.One[C](c, ctx, op)
		}
		if c.dedup && len(res.Items) > 1 {
			res.Items = dedupItems(res.Items)
		}
	}
	return results
}

// resize returns s with length n and every element zeroed.
func resize[T any](s []T, n int) []T {
	var zero T
	s = s[:0]
	for i := 0; i < n; i++ {
		s = append(s, zero)
	}
	return s
}

// resetEach returns s with length n and every inner slice emptied, keeping
// the inner slices' capacity for reuse.
func resetEach[T any](s [][]T, n int) [][]T {
	if cap(s) < n {
		s = make([][]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}
