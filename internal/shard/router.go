package shard

import (
	"fmt"
	"time"

	"github.com/catfish-db/catfish/internal/client"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/sim"
)

// RouterConfig parametrizes a simulated-fabric Router.
type RouterConfig struct {
	// Engine is the simulation the clients run in.
	Engine *sim.Engine
	// Map is the deployment's shard map.
	Map *Map
	// Clients holds one connected client per shard, in shard order. Each
	// client owns its own adaptive.Switch, so Algorithm 1's back-off runs
	// independently per shard: a hot shard offloads while idle shards keep
	// fast messaging.
	Clients []*client.Client
	// HeartbeatInterval is the servers' heartbeat period; liveness tracking
	// is disabled when zero.
	HeartbeatInterval time.Duration
	// HealthMultiple is the liveness window in heartbeat intervals
	// (DefaultHealthMultiple when 0).
	HealthMultiple int
	// Backups holds, per shard, connected clients to that shard's backup
	// servers in preference order. Nil (or empty inner slices) disables
	// failover for that shard, leaving routing bit-for-bit identical to an
	// unreplicated deployment.
	Backups [][]*client.Client
}

// RouterStats counts router-level outcomes. Per-shard transport and
// offloading counters live in each shard client's Stats.
type RouterStats struct {
	// Searches and Writes count routed operations. A move counts toward
	// Writes once per shard it touches (once same-owner, twice cross-owner)
	// on top of its Moves count; a kNN counts only in KNNs.
	Searches uint64
	Writes   uint64
	Moves    uint64
	KNNs     uint64
	// Fanout is the total number of shard sub-searches issued; divided by
	// Searches it gives the mean fan-out per search.
	Fanout uint64
	// Skipped counts searches whose every target shard was unhealthy; they
	// return empty result sets rather than blocking.
	Skipped uint64
	// UnhealthyWrites counts writes rejected with UnhealthyError.
	UnhealthyWrites uint64
	// Promotions counts successful backup promotions (failovers).
	Promotions uint64
	// BackupReads counts sub-searches answered by a backup replica after
	// the active server refused service.
	BackupReads uint64
	// MapAdoptions counts successor shard maps adopted mid-run during live
	// resharding (real-socket router only; the simulated fabric has no
	// resharding path).
	MapAdoptions uint64
}

// Router is the simulated fabric's binding of the routing Core, whose
// methods it serves: the driving process is the execution context,
// sub-operations of one request run as parallel simulation processes
// (mirroring the goroutine fan-out of the real-socket router), and shard
// liveness comes from a monitor process polling each serving client's
// heartbeat sequence. A router serves one driving process.
type Router struct {
	*Core[*sim.Proc, simReplica]
	health  *Health
	lastSeq []uint64 // per-shard heartbeat sequence last observed
}

// simReplica binds a simulated client to the core. The simulator elects in
// preference order: every replica counts as live and equally caught up, so
// promotion tries the candidates in order, a dead one answering
// StatusUnavailable.
type simReplica struct{ *client.Client }

func (simReplica) Alive() bool                           { return true }
func (simReplica) ReplicaState() (epoch, applied uint64) { return 0, 0 }

// simRuntime runs the core on virtual time.
type simRuntime struct{ r *Router }

func (simRuntime) Now(p *sim.Proc) time.Duration            { return p.Now() }
func (simRuntime) Sleep(p *sim.Proc, d time.Duration)       { p.Sleep(d) }
func (rt simRuntime) Healthy(s int, now time.Duration) bool { return rt.r.health.Healthy(s, now) }

// Fork spawns one process per slot past the first and waits on a
// simulated wait group.
func (simRuntime) Fork(p *sim.Proc, n int, fn func(*sim.Proc, int)) {
	wg := sim.NewWaitGroup(p.Engine())
	wg.Add(n - 1)
	for slot := 1; slot < n; slot++ {
		p.Spawn("shard-scatter", func(sp *sim.Proc) {
			fn(sp, slot)
			wg.Done()
		})
	}
	fn(p, 0)
	wg.Wait(p)
}

// Promoted restarts the monitor's view of shard s at the promoted client's
// current heartbeat sequence.
func (rt simRuntime) Promoted(s int, now time.Duration) {
	if rt.r.health != nil {
		rt.r.lastSeq[s] = rt.r.Serving(s).HeartbeatSeq()
		rt.r.health.Observe(s, now)
	}
}

// NewRouter builds a router over one connected client per shard and starts
// its heartbeat monitor process. Call before sim.Engine.Run (or from a
// running process).
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Map == nil {
		return nil, fmt.Errorf("shard: router needs a map")
	}
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	k := cfg.Map.K()
	if len(cfg.Clients) != k {
		return nil, fmt.Errorf("shard: %d clients for %d shards", len(cfg.Clients), k)
	}
	cands := make([][]simReplica, k)
	epochs := make([]uint64, k)
	for s := range cands {
		cands[s] = append(cands[s], simReplica{cfg.Clients[s]})
		if s < len(cfg.Backups) {
			for _, b := range cfg.Backups[s] {
				cands[s] = append(cands[s], simReplica{b})
			}
		}
		epochs[s] = 1
	}
	r := &Router{lastSeq: make([]uint64, k)}
	r.Core = NewCore[*sim.Proc, simReplica](simRuntime{r}, cfg.Map, cands, epochs, 0)
	if cfg.HeartbeatInterval > 0 {
		r.health = NewHealth(k, cfg.HeartbeatInterval, cfg.HealthMultiple, cfg.Engine.Now())
		cfg.Engine.Spawn("shard-hb-monitor", r.monitor(cfg.HeartbeatInterval))
	}
	return r, nil
}

// monitor polls each shard client's heartbeat mailbox sequence once per
// heartbeat interval; a sequence change means a heartbeat arrived since the
// last poll.
func (r *Router) monitor(interval time.Duration) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		for {
			p.Sleep(interval)
			for i := range r.lastSeq {
				if seq := r.Serving(i).HeartbeatSeq(); seq != r.lastSeq[i] {
					r.lastSeq[i] = seq
					r.health.Observe(i, p.Now())
				}
			}
		}
	}
}

// Healthy reports shard i's current liveness.
func (r *Router) Healthy(i int, now time.Duration) bool {
	return r.health.Healthy(i, now)
}

// Nearest answers a k-nearest-neighbor query with the best-first
// cross-shard gather (Core.Nearest); the simulated API drops the method.
func (r *Router) Nearest(p *sim.Proc, k int, x, y float64) ([]rtree.Neighbor, error) {
	nbrs, _, err := r.Core.Nearest(p, k, x, y)
	return nbrs, err
}
