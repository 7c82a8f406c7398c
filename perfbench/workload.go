package main

import (
	"fmt"
	"math/rand"
	"time"

	catfish "github.com/catfish-db/catfish"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rpcnet"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/scenario"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/workload"
)

// Every workload runs two closed-loop clients: Catfish connections are
// synchronous (one goroutine per Conn), and the paper's clients issue
// requests back to back.
const numClients = 2

// Workload shapes. The sizes follow catfish-server's defaults and the
// ROADMAP baseline table so the numbers stay comparable with it.
const (
	datasetItems = 200_000

	fastPointEdge    = 0.001 // ~1 result per window on 200k uniform rects
	offloadRangeEdge = 0.01

	fleetBackground = 100_000
	fleetObjects    = 10_000 // split evenly between the clients
	fleetShards     = 2
	fleetKNN        = 10
	fleetMoveShare  = 0.7
	fleetKNNShare   = 0.2 // the remaining 0.1 are district scans
	fleetScanMin    = 0.05
	fleetScanMax    = 0.1
	fleetRefBase    = 1 << 32
	// fleetHealthMultiple widens the router's shard-liveness window to
	// half a second: on two shared cores a 10-interval window can miss
	// heartbeats under load, and a skipped shard fails the path guard.
	fleetHealthMultiple = 50
	fleetFetchSlots     = 64
	maxInsertEdge       = 1e-5 // the fleet's rect edge (scenario default)
	heartbeatInterval   = 10 * time.Millisecond
)

type opKind uint8

const (
	opSearch opKind = iota
	opKNN
	opMove
	numKinds
)

func (k opKind) String() string {
	return [...]string{"search", "knn", "move"}[k]
}

// op is one generated request. A kNN query point is q's corner; a move
// relocates (q, ref) to (to, ref).
type op struct {
	kind opKind
	q    geo.Rect
	to   geo.Rect
	ref  uint64
}

// opGen produces one client's deterministic request stream.
type opGen interface {
	next() op
}

// workloadDef is one traffic mix of the benchmark.
type workloadDef struct {
	name string
	// entries builds the dataset every shard is cut from.
	entries func(seed int64) []rtree.Entry
	// shards is the number of servers the child process runs.
	shards int
	server rpcnet.ServerConfig
	// options configures each client's Conn.
	options []catfish.Option
	// fleet marks the moving-fleet mix: its clients share one multiplexed
	// connection per shard, and the gate checks the servers' final state
	// instead of sampled answers.
	fleet bool
	// newGen returns client c's request stream.
	newGen func(seed int64, c int) opGen
}

var workloads = []*workloadDef{
	{
		name:    "fast-point",
		entries: func(seed int64) []rtree.Entry { return workload.UniformRects(datasetItems, 0.0001, seed) },
		shards:  1,
		server:  rpcnet.ServerConfig{HeartbeatInterval: heartbeatInterval},
		options: []catfish.Option{catfish.WithForced(rpcnet.MethodFast)},
		newGen: func(seed int64, c int) opGen {
			return &windowGen{rng: rng(seed, "ops", c), edge: fastPointEdge}
		},
	},
	{
		name: "offload-range",
		entries: func(seed int64) []rtree.Entry {
			return workload.Rea02Like(workload.Rea02Config{N: datasetItems, Seed: seed})
		},
		shards: 1,
		server: rpcnet.ServerConfig{HeartbeatInterval: heartbeatInterval},
		options: []catfish.Option{
			catfish.WithClientConfig(rpcnet.ClientConfig{MultiIssue: true}),
			catfish.WithForced(rpcnet.MethodOffload),
			catfish.WithMergeSpan(8),
			catfish.WithNodeCache(64),
		},
		newGen: func(seed int64, c int) opGen {
			return &windowGen{rng: rng(seed, "ops", c), edge: offloadRangeEdge}
		},
	},
	{
		name:    "fleet-mixed",
		entries: fleetEntries,
		shards:  fleetShards,
		server:  rpcnet.ServerConfig{HeartbeatInterval: heartbeatInterval, FetchSlots: fleetFetchSlots},
		options: []catfish.Option{
			catfish.WithForced(rpcnet.MethodFetch),
			catfish.WithHealthMultiple(fleetHealthMultiple),
		},
		fleet:  true,
		newGen: func(seed int64, c int) opGen { return newFleetGen(seed, c) },
	},
}

func lookupWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rng derives an independent deterministic stream for one purpose and
// client from the run's seed.
func rng(seed int64, purpose string, c int) *rand.Rand {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(c+1)*0xbf58476d1ce4e5b9
	for _, b := range []byte(purpose) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// windowGen draws read-only window searches with edges uniform in
// (0, edge], placed uniformly in the unit square.
type windowGen struct {
	rng  *rand.Rand
	edge float64
}

func (g *windowGen) next() op {
	return op{kind: opSearch, q: workload.UniformScale{Scale: g.edge}.Next(g.rng)}
}

// fleetGen drives one client's half of the moving fleet: MOVEs of its own
// objects, kNN around them, and wide district scans.
type fleetGen struct {
	rng   *rand.Rand
	objs  *scenario.MovingObjects
	moves []scenario.Move
	pos   int
}

// fleetHalf rebuilds client c's fleet at its starting positions; the
// server child seeds the same objects into the dataset.
func fleetHalf(seed int64, c int) *scenario.MovingObjects {
	half := fleetObjects / numClients
	return scenario.NewMovingObjects(rng(seed, "fleet", c), scenario.MovingConfig{
		N:       half,
		Edge:    maxInsertEdge,
		RefBase: fleetRefBase + uint64(c*half),
	})
}

func newFleetGen(seed int64, c int) *fleetGen {
	return &fleetGen{rng: rng(seed, "ops", c), objs: fleetHalf(seed, c)}
}

func (g *fleetGen) next() op {
	r := g.rng.Float64()
	switch {
	case r < fleetMoveShare:
		if g.pos == len(g.moves) {
			g.moves = g.objs.Tick(g.rng, g.moves)
			g.pos = 0
		}
		mv := g.moves[g.pos]
		g.pos++
		return op{kind: opMove, q: mv.From, to: mv.To, ref: mv.Ref}
	case r < fleetMoveShare+fleetKNNShare:
		i := g.rng.Intn(g.objs.Len())
		return op{kind: opKNN, q: geo.PointRect(g.objs.X[i], g.objs.Y[i])}
	default:
		edge := fleetScanMin + (fleetScanMax-fleetScanMin)*g.rng.Float64()
		x, y := g.rng.Float64()*(1-edge), g.rng.Float64()*(1-edge)
		return op{kind: opSearch, q: geo.Rect{MinX: x, MinY: y, MaxX: x + edge, MaxY: y + edge}}
	}
}

// fleetEntries is the static uniform background plus every fleet object
// at its starting position.
func fleetEntries(seed int64) []rtree.Entry {
	out := workload.UniformRects(fleetBackground, 0.0001, seed)
	for c := 0; c < numClients; c++ {
		out = append(out, fleetHalf(seed, c).Seed()...)
	}
	return out
}

// shardEntries cuts the dataset into the workload's shards; an unsharded
// workload gets the whole dataset and a nil map.
func shardEntries(w *workloadDef, entries []rtree.Entry) (*shard.Map, [][]rtree.Entry, error) {
	if w.shards == 1 {
		return nil, [][]rtree.Entry{entries}, nil
	}
	m, err := shard.Build(entries, shard.Config{K: w.shards, MaxInsertEdge: maxInsertEdge})
	if err != nil {
		return nil, nil, err
	}
	return m, m.Assign(entries), nil
}

// buildTree bulk-loads entries into a fresh region-backed R*-tree, sized
// the way catfish-server sizes it. The same entries always yield the same
// chunk layout, which the layer replay relies on.
func buildTree(entries []rtree.Entry) (*rtree.Tree, error) {
	const fanout = 64
	perLeaf := fanout / 2
	chunks := len(entries)/perLeaf + len(entries)/(perLeaf*perLeaf) + 4096
	reg, err := region.New(chunks*2, 4096)
	if err != nil {
		return nil, err
	}
	tree, err := rtree.New(reg, rtree.Config{MaxEntries: fanout})
	if err != nil {
		return nil, err
	}
	if len(entries) > 0 {
		if err := tree.BulkLoad(entries, 0); err != nil {
			return nil, err
		}
	}
	return tree, nil
}
