package rpcnet

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// RouterConfig tunes DialRouter.
type RouterConfig struct {
	// Client configures each per-shard connection. The adaptive switch is
	// per connection, so Algorithm 1 runs independently per shard; Seed is
	// offset by the shard index so back-off draws decorrelate.
	Client ClientConfig
	// HealthMultiple is the shard-liveness window in heartbeat intervals
	// (shard.DefaultHealthMultiple when 0); liveness tracking is disabled
	// when the servers do not heartbeat.
	HealthMultiple int
	// Backups holds, per shard, backup server addresses in preference
	// order. Nil (or empty inner slices) disables failover for that shard,
	// leaving routing identical to an unreplicated deployment.
	Backups [][]string
	// ReadReplicaUtil, when > 0, routes a sub-search to the least-loaded
	// replica of its shard whenever the active server's predicted
	// utilization exceeds this threshold — backups absorb reads from a
	// predicted-hot primary without any failover.
	ReadReplicaUtil float64
	// Pool, when non-nil, attaches each per-shard client to a pooled
	// multiplexed connection instead of dialing its own socket, so many
	// routers (and plain clients) share a bounded set of TCP connections.
	// The pool's lifetime is the caller's: closing the router detaches its
	// streams but leaves the pooled connections open.
	Pool *MuxPool
}

// Router is the real-socket binding of the routing shard.Core: one
// connection — and one adaptive switch — per shard replica, sub-operations
// fanned out as goroutines, shard liveness read from heartbeat arrival
// times. It adds what only a live deployment has: hello validation at dial
// time and mid-run adoption of a successor shard map (live resharding).
// Like Client it serves one goroutine at a time; per-search scatter
// concurrency is internal.
type Router struct {
	core   *shard.Core[struct{}, shardConn]
	health *shard.Health // driving goroutine only; replaced on adoption
	window time.Duration // liveness window (0 = no tracking)
	hbInv  time.Duration
	cfg    RouterConfig
	start  time.Time
}

// shardConn binds a connection to the code shared with the simulator
// (shard.Core, exec.One), whose execution context is empty on real
// sockets. Liveness is the connection's last heartbeat arrival against the
// router's window (r is nil outside a router, where liveness is unused).
type shardConn struct {
	*Client
	r *Router
}

func (c shardConn) Search(_ struct{}, q geo.Rect) ([]wire.Item, Method, error) {
	return c.Client.Search(q)
}

func (c shardConn) Insert(_ struct{}, rect geo.Rect, ref uint64) error {
	return c.Client.Insert(rect, ref)
}

func (c shardConn) Delete(_ struct{}, rect geo.Rect, ref uint64) error {
	return c.Client.Delete(rect, ref)
}

func (c shardConn) Move(_ struct{}, from, to geo.Rect, ref uint64) error {
	return c.Client.Move(from, to, ref)
}

func (c shardConn) Nearest(_ struct{}, k int, x, y float64) ([]rtree.Neighbor, Method, error) {
	return c.Client.Nearest(k, x, y)
}

func (c shardConn) ExecBatch(_ struct{}, ops []BatchOp, results []BatchResult) []BatchResult {
	return c.Client.ExecBatch(ops, results)
}

func (c shardConn) Promote(_ struct{}, epoch uint64) error { return c.Client.Promote(epoch) }

// Alive reports whether the connection's last heartbeat is within the
// router's liveness window, from arrival atomics alone (no health-tracker
// state), so it is safe from any goroutine. Before the first heartbeat the
// connection gets the same one-window grace the tracker gives.
func (c shardConn) Alive() bool {
	if c.r.window == 0 {
		return true
	}
	age, seen := c.HeartbeatAge()
	if !seen {
		return time.Since(c.r.start) <= c.r.window
	}
	return age <= c.r.window
}

// netRuntime runs the core on wall-clock time and goroutines.
type netRuntime struct{ r *Router }

func (rt netRuntime) Now(struct{}) time.Duration     { return time.Since(rt.r.start) }
func (netRuntime) Sleep(_ struct{}, d time.Duration) { time.Sleep(d) }

// Fork runs one goroutine per slot past the first.
func (netRuntime) Fork(ctx struct{}, n int, fn func(struct{}, int)) {
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for slot := 1; slot < n; slot++ {
		go func() {
			defer wg.Done()
			fn(ctx, slot)
		}()
	}
	fn(ctx, 0)
	wg.Wait()
}

// Healthy reports shard s's liveness from its serving connection's last
// heartbeat arrival. Observation is lazy — arrival times live on the
// connections — so the tracker is refreshed before it is asked. Driving
// goroutine only.
func (rt netRuntime) Healthy(s int, now time.Duration) bool {
	if rt.r.health == nil {
		return true
	}
	if age, seen := rt.r.core.Serving(s).HeartbeatAge(); seen {
		rt.r.health.Observe(s, now-age)
	}
	return rt.r.health.Healthy(s, now)
}

func (rt netRuntime) Promoted(s int, now time.Duration) { rt.r.health.Observe(s, now) }

// DialRouter connects to every shard of a deployment, in shard order,
// validates that the servers agree on the deployment shape (position,
// count, and map version), and fetches and verifies the shard map. A
// single unsharded address yields a trivial one-shard router.
//
// Deprecated: use Connect, which unifies single-server and routed
// construction behind functional options.
func DialRouter(addrs []string, cfg RouterConfig) (*Router, error) {
	if len(addrs) == 0 {
		return nil, errors.New("rpcnet: router needs at least one address")
	}
	r := &Router{start: time.Now(), cfg: cfg}
	var cands [][]shardConn
	ok := false
	defer func() {
		if !ok {
			closeAll(cands)
		}
	}()
	for i, addr := range addrs {
		c, err := r.dialShard(addr, i)
		if err != nil {
			return nil, err
		}
		cands = append(cands, []shardConn{c})
		h := c.Hello()
		if h.ShardCount <= 1 && len(addrs) == 1 {
			continue // unsharded single server: trivial map below
		}
		if int(h.ShardCount) != len(addrs) {
			return nil, fmt.Errorf("rpcnet: shard %d (%s) reports %d shards, router has %d addresses",
				i, addr, h.ShardCount, len(addrs))
		}
		if int(h.ShardIndex) != i {
			return nil, fmt.Errorf("rpcnet: address %d (%s) is shard %d; list addresses in shard order",
				i, addr, h.ShardIndex)
		}
		if h.MapVersion != cands[0][0].Hello().MapVersion {
			return nil, fmt.Errorf("%w: shard %d (%s)", shard.ErrVersionMismatch, i, addr)
		}
	}
	first := cands[0][0]
	m := shard.Single()
	if len(addrs) > 1 || first.Hello().ShardCount > 1 {
		var err error
		if m, err = first.FetchShardMap(); err != nil {
			return nil, err
		}
		if err := m.Validate(); err != nil {
			return nil, err
		}
		if m.K() != len(addrs) {
			return nil, fmt.Errorf("rpcnet: map has %d cells, router has %d addresses", m.K(), len(addrs))
		}
	}
	epochs := make([]uint64, len(cands))
	for s := range cands {
		epochs[s] = helloEpoch(cands[s][0].Client)
		if s >= len(cfg.Backups) {
			continue
		}
		for _, baddr := range cfg.Backups[s] {
			c, err := r.dialShard(baddr, s)
			if err != nil {
				return nil, fmt.Errorf("rpcnet: shard %d backup: %w", s, err)
			}
			cands[s] = append(cands[s], c)
		}
	}
	r.hbInv = time.Duration(first.Hello().HeartbeatMs) * time.Millisecond
	if r.hbInv > 0 {
		r.health = shard.NewHealth(len(cands), r.hbInv, cfg.HealthMultiple, time.Since(r.start))
		r.window = r.health.Window()
	}
	r.core = shard.NewCore[struct{}, shardConn](netRuntime{r}, m, cands, epochs, cfg.ReadReplicaUtil)
	if reg := cfg.Client.Metrics; reg != nil {
		// Per-shard liveness gauges and the availability counters
		// (satellites of DESIGN.md §5.11). The gauges read only heartbeat
		// arrival atomics — never the health tracker, which is owned by the
		// routing goroutine.
		for i := range cands {
			reg.With("shard", strconv.Itoa(i)).GaugeFunc("catfish_shard_healthy", func() float64 {
				if r.candAlive(i) {
					return 1
				}
				return 0
			})
		}
		reg.CounterFunc("catfish_shard_skipped_searches_total", func() uint64 { return r.Stats().Skipped })
		reg.CounterFunc("catfish_router_promotions_total", func() uint64 { return r.Stats().Promotions })
		reg.CounterFunc("catfish_router_backup_reads_total", func() uint64 { return r.Stats().BackupReads })
		reg.CounterFunc("catfish_router_map_adoptions_total", func() uint64 { return r.Stats().MapAdoptions })
	}
	ok = true
	return r, nil
}

// helloEpoch is the fencing epoch a freshly dialed connection's server
// announced (at least 1).
func helloEpoch(c *Client) uint64 {
	return max(1, c.Hello().ReplicaEpoch)
}

// dialShard dials one replica of shard i with the per-shard client config.
func (r *Router) dialShard(addr string, i int) (shardConn, error) {
	ccfg := r.cfg.Client
	ccfg.Seed += int64(i)
	ccfg.Shard = i
	if ccfg.Metrics != nil {
		// Per-shard label so the scraped series separate by shard.
		ccfg.Metrics = ccfg.Metrics.With("shard", strconv.Itoa(i))
	}
	var c *Client
	var err error
	if r.cfg.Pool == nil {
		c, err = Dial(addr, ccfg)
	} else {
		var m *Mux
		if m, err = r.cfg.Pool.Mux(addr); err == nil {
			c, err = m.Client(ccfg)
		}
	}
	if err != nil {
		return shardConn{}, fmt.Errorf("rpcnet: shard %d (%s): %w", i, addr, err)
	}
	return shardConn{c, r}, nil
}

// Map returns the deployment's verified shard map (the adopted successor
// after a live reshard).
func (r *Router) Map() *shard.Map { return r.core.Map() }

// Clients returns the serving connection per shard, in shard order (for
// stats collection; routing should go through the router).
func (r *Router) Clients() []*Client {
	out := make([]*Client, len(r.core.Replicas()))
	for s := range out {
		out[s] = r.core.Serving(s).Client
	}
	return out
}

// Snapshot aggregates every connection's counters into one unified
// snapshot.
func (r *Router) Snapshot() telemetry.ClientSnapshot { return r.core.Snapshot() }

// Close tears down every connection, returning the first error.
func (r *Router) Close() error { return closeAll(r.core.Replicas()) }

func closeAll(cands [][]shardConn) error {
	var first error
	for _, reps := range cands {
		for _, c := range reps {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Stats returns a snapshot of the router's counters.
func (r *Router) Stats() shard.RouterStats { return r.core.Stats() }

// candAlive reports whether any replica of shard s is heartbeating — the
// catfish_shard_healthy gauge.
func (r *Router) candAlive(s int) bool {
	cands := r.core.Replicas()
	return s < len(cands) && slices.ContainsFunc(cands[s], shardConn.Alive)
}

// Healthy reports shard i's current liveness.
func (r *Router) Healthy(i int) bool {
	return netRuntime{r}.Healthy(i, time.Since(r.start))
}

// maybeAdopt checks each shard's heartbeat for a served map version that
// differs from the router's and, when found, adopts the successor map.
// Driving goroutine only; called at the top of each routed operation.
func (r *Router) maybeAdopt() {
	m := r.core.Map()
	for s := 0; s < m.K(); s++ {
		c := r.core.Serving(s)
		if v := c.HeartbeatMapVersion(); v != 0 && v != m.Version {
			if r.adoptFrom(c.Client, m) {
				return
			}
		}
	}
}

// adoptFrom fetches the map a server now serves and installs it when it is
// a valid successor of cur: checksum intact, strictly more cells (versions
// are content hashes, not ordered, so growth is the staleness check), and
// a full address table so the new shards can be dialed. The new shard
// positions get fresh connections whose hellos must agree on the adopted
// version; existing positions keep their connections and replica lists.
// Reports whether the map was adopted.
func (r *Router) adoptFrom(from *Client, cur *shard.Map) bool {
	m, addrs, err := from.FetchShardMapFull()
	if err != nil {
		return false
	}
	if m.Validate() != nil || m.K() <= cur.K() || len(addrs) != m.K() {
		return false
	}
	fresh := make([]shardConn, 0, m.K()-cur.K())
	epochs := make([]uint64, 0, m.K()-cur.K())
	abort := func() bool {
		closeAll([][]shardConn{fresh})
		return false
	}
	for s := cur.K(); s < m.K(); s++ {
		c, derr := r.dialShard(addrs[s], s)
		if derr != nil {
			return abort()
		}
		fresh = append(fresh, c)
		if hv := c.Hello().MapVersion; hv != 0 && hv != m.Version {
			return abort()
		}
		epochs = append(epochs, helloEpoch(c.Client))
	}
	if r.health != nil {
		// Existing shards keep their liveness: Healthy re-observes the
		// serving connection's last heartbeat arrival whenever it is asked.
		r.health = shard.NewHealth(m.K(), r.hbInv, r.cfg.HealthMultiple, time.Since(r.start))
	}
	// Until the old shard drains its moved entries, both servers answer for
	// the split region; the core deduplicates merged results from here on.
	r.core.Adopt(m, fresh, epochs)
	return true
}

// Search scatters q to every healthy shard whose coverage intersects it
// (one goroutine per additional shard) and merges the partial result sets
// in shard order (shard.Core.Search).
func (r *Router) Search(q geo.Rect) ([]wire.Item, Method, error) {
	r.maybeAdopt()
	return r.core.Search(struct{}{}, q)
}

// Insert routes the insert to the owning shard (shard.Core.Insert).
func (r *Router) Insert(rect geo.Rect, ref uint64) error {
	r.maybeAdopt()
	return r.core.Insert(struct{}{}, rect, ref)
}

// Delete routes the delete to the owning shard (shard.Core.Delete).
func (r *Router) Delete(rect geo.Rect, ref uint64) error {
	r.maybeAdopt()
	return r.core.Delete(struct{}{}, rect, ref)
}

// Move relocates entry (from, ref) to (to, ref) (shard.Core.Move).
func (r *Router) Move(from, to geo.Rect, ref uint64) error {
	r.maybeAdopt()
	return r.core.Move(struct{}{}, from, to, ref)
}

// Nearest answers a k-nearest-neighbor query with the best-first
// cross-shard gather (shard.Core.Nearest).
func (r *Router) Nearest(k int, x, y float64) ([]rtree.Neighbor, Method, error) {
	r.maybeAdopt()
	return r.core.Nearest(struct{}{}, k, x, y)
}

// ExecBatch routes a batch through the shards as concurrent per-shard
// client batches (shard.Core.ExecBatch). Results reuses the caller's
// slice.
func (r *Router) ExecBatch(ops []BatchOp, results []BatchResult) []BatchResult {
	r.maybeAdopt()
	return r.core.ExecBatch(struct{}{}, ops, results)
}
