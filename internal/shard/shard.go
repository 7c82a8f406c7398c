// Package shard implements spatial partitioning for a multi-server
// ("sharded") Catfish deployment: a recursive longest-axis partitioner that
// splits the dataset into K shard cells, a versioned shard map distributed
// to clients, heartbeat-driven shard liveness, and scatter-gather routers
// (the simulated-fabric Router here, its real-socket sibling in
// internal/rpcnet) that fan each search out to every shard whose coverage
// intersects the query and route each write to the unique owning shard.
//
// Ownership is by center point: an entry belongs to the one cell containing
// its rectangle's center, so inserts and deletes always agree on a single
// owner. Cells tile the whole plane (boundary cells extend to infinity),
// which makes ownership total. Because an owned rectangle may protrude past
// its cell, each cell is expanded by the map's pads — half the largest
// entry extent the deployment accepts — into its search coverage; a query
// intersecting an entry always intersects the owner's coverage, so
// scatter-gather search over coverage intersections is exact.
//
// Each shard runs an ordinary single-server Catfish instance with its own
// heartbeat stream, and a router keeps one adaptive.Switch per shard (via
// one client per shard), so the paper's Algorithm 1 back-off runs
// independently per server: a hot shard offloads while idle shards keep
// fast messaging — the per-server CPU framing that RFP (Su et al.) gives
// the fast-messaging-vs-remote-read tradeoff.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/rtree"
)

// Config parametrizes Build.
type Config struct {
	// K is the shard count (>= 1).
	K int
	// MaxInsertEdge is the largest rectangle edge future inserts may carry;
	// it widens the coverage pads so an insert owned by a cell can never
	// protrude beyond the coverage searches consult. Zero accepts inserts
	// no larger than the dataset's own largest entry.
	MaxInsertEdge float64
}

// Map is the versioned shard map a deployment distributes to every client.
// All servers and routers of one deployment must hold maps with the same
// Version; the version doubles as a content checksum (see FromParts).
type Map struct {
	// Version identifies the partition (an FNV-1a digest of the cells and
	// pads, so it is reproducible across processes building from the same
	// dataset).
	Version uint64
	// Cells tile the plane: boundary cells extend to infinity, so every
	// rectangle has exactly one owner. Cell index is shard index.
	Cells []geo.Rect
	// PadX and PadY expand each cell into its search coverage: an entry
	// owned by a cell protrudes at most PadX (PadY) beyond it per axis.
	PadX, PadY float64

	cover []geo.Rect // Cells expanded by the pads
}

// ErrVersionMismatch reports a transported map whose content does not match
// its claimed version (or routers/servers disagreeing on the map version).
var ErrVersionMismatch = errors.New("shard: map version mismatch")

// Build partitions entries into cfg.K shard cells by recursive longest-axis
// splits: each step splits the current subset's minimum bounding rectangle
// along its longer axis at a count-proportional median, so shards own
// near-equal entry counts even under skew. K=1 yields the trivial
// single-cell map.
func Build(entries []rtree.Entry, cfg Config) (*Map, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("shard: K must be >= 1, got %d", cfg.K)
	}
	padX, padY := cfg.MaxInsertEdge/2, cfg.MaxInsertEdge/2
	pts := make([]point, len(entries))
	for i, e := range entries {
		cx, cy := e.Rect.Center()
		pts[i] = point{x: cx, y: cy}
		if hw := e.Rect.Width() / 2; hw > padX {
			padX = hw
		}
		if hh := e.Rect.Height() / 2; hh > padY {
			padY = hh
		}
	}
	m := &Map{PadX: padX, PadY: padY, Cells: make([]geo.Rect, 0, cfg.K)}
	m.split(geo.Plane(), pts, cfg.K)
	m.finish()
	return m, nil
}

// Single returns the trivial one-shard map (the whole plane, no pads
// needed: with one shard nothing can be missed).
func Single() *Map {
	m := &Map{Cells: []geo.Rect{geo.Plane()}}
	m.finish()
	return m
}

// FromParts assembles a map from its transported parts (wire.ShardMapData),
// recomputing the coverage rectangles and verifying that the content hashes
// to the claimed version.
func FromParts(version uint64, padX, padY float64, cells []geo.Rect) (*Map, error) {
	if len(cells) == 0 {
		return nil, errors.New("shard: map with no cells")
	}
	m := &Map{Cells: cells, PadX: padX, PadY: padY}
	m.finish()
	if m.Version != version {
		return nil, fmt.Errorf("%w: content hashes to %#x, header says %#x",
			ErrVersionMismatch, m.Version, version)
	}
	return m, nil
}

// Validate recomputes the content digest over the cells and pads and
// verifies it matches the claimed Version — the integrity check both
// routers run on any map that crossed a trust boundary (a wire fetch, a
// mid-run reshard adoption).
func (m *Map) Validate() error {
	cp := Map{Cells: m.Cells, PadX: m.PadX, PadY: m.PadY}
	cp.finish()
	if cp.Version != m.Version {
		return fmt.Errorf("%w: content hashes to %#x, header says %#x",
			ErrVersionMismatch, cp.Version, m.Version)
	}
	return nil
}

// SplitCell returns a copy of m with cell idx split in two — the live
// resharding step that peels half a hot shard onto a new server. The split
// runs along the longer axis of the entries' bounding box (the cell's
// finite footprint when entries is empty), at the count-median of the
// entries' centers, exactly like Build's partitioner. The lower half keeps
// index idx; the upper half becomes the new last cell (shard index K). The
// pads carry over so coverage stays exact, and the recomputed Version is
// the bumped MapVersion routers converge to.
func (m *Map) SplitCell(idx int, entries []rtree.Entry) (*Map, error) {
	if idx < 0 || idx >= len(m.Cells) {
		return nil, fmt.Errorf("shard: split cell %d of %d", idx, len(m.Cells))
	}
	pts := make([]point, len(entries))
	for i, e := range entries {
		cx, cy := e.Rect.Center()
		pts[i] = point{x: cx, y: cy}
	}
	cell := m.Cells[idx]
	nm := &Map{PadX: m.PadX, PadY: m.PadY, Cells: append([]geo.Rect(nil), m.Cells...)}
	axisX := nm.longestAxisX(cell, pts)
	coord := func(p point) float64 {
		if axisX {
			return p.x
		}
		return p.y
	}
	var s float64
	if len(pts) >= 2 {
		sort.Slice(pts, func(i, j int) bool {
			if coord(pts[i]) != coord(pts[j]) {
				return coord(pts[i]) < coord(pts[j])
			}
			if axisX {
				return pts[i].y < pts[j].y
			}
			return pts[i].x < pts[j].x
		})
		nl := len(pts) / 2
		s = (coord(pts[nl-1]) + coord(pts[nl])) / 2
	} else {
		f := finite(cell)
		if axisX {
			s = (f.MinX + f.MaxX) / 2
		} else {
			s = (f.MinY + f.MaxY) / 2
		}
	}
	left, right := cell, cell
	if axisX {
		left.MaxX, right.MinX = s, s
	} else {
		left.MaxY, right.MinY = s, s
	}
	nm.Cells[idx] = left
	nm.Cells = append(nm.Cells, right)
	nm.finish()
	return nm, nil
}

type point struct{ x, y float64 }

// split recursively partitions cell (holding pts) into k cells, appending
// leaves left-to-right so cell order — and therefore shard numbering — is
// deterministic for a given dataset.
func (m *Map) split(cell geo.Rect, pts []point, k int) {
	if k == 1 {
		m.Cells = append(m.Cells, cell)
		return
	}
	kl := k / 2
	axisX := m.longestAxisX(cell, pts)
	coord := func(p point) float64 {
		if axisX {
			return p.x
		}
		return p.y
	}
	// Sort along the split axis (ties broken by the other axis so the
	// order, and hence the split coordinate, is deterministic).
	sort.Slice(pts, func(i, j int) bool {
		if coord(pts[i]) != coord(pts[j]) {
			return coord(pts[i]) < coord(pts[j])
		}
		if axisX {
			return pts[i].y < pts[j].y
		}
		return pts[i].x < pts[j].x
	})
	var s float64
	if len(pts) >= 2 {
		// Count-proportional median: kl/k of the points go left; split
		// halfway between the straddling pair.
		nl := len(pts) * kl / k
		if nl < 1 {
			nl = 1
		}
		if nl >= len(pts) {
			nl = len(pts) - 1
		}
		s = (coord(pts[nl-1]) + coord(pts[nl])) / 2
	} else {
		// No points to balance: halve the cell's finite footprint.
		f := finite(cell)
		if axisX {
			s = (f.MinX + f.MaxX) / 2
		} else {
			s = (f.MinY + f.MaxY) / 2
		}
	}
	left, right := cell, cell
	if axisX {
		left.MaxX, right.MinX = s, s
	} else {
		left.MaxY, right.MinY = s, s
	}
	var lp, rp []point
	for _, p := range pts {
		if coord(p) < s {
			lp = append(lp, p)
		} else {
			rp = append(rp, p)
		}
	}
	m.split(left, lp, kl)
	m.split(right, rp, k-kl)
}

// longestAxisX picks the split axis: the longer side of the points' MBR
// (or of the cell's finite footprint when the subset is empty). True means
// split along x.
func (m *Map) longestAxisX(cell geo.Rect, pts []point) bool {
	if len(pts) > 0 {
		minX, maxX := pts[0].x, pts[0].x
		minY, maxY := pts[0].y, pts[0].y
		for _, p := range pts[1:] {
			minX = math.Min(minX, p.x)
			maxX = math.Max(maxX, p.x)
			minY = math.Min(minY, p.y)
			maxY = math.Max(maxY, p.y)
		}
		return maxX-minX >= maxY-minY
	}
	f := finite(cell)
	return f.Width() >= f.Height()
}

// finite clips a possibly-infinite cell to the unit square the workloads
// live in, for midpoint computations only.
func finite(cell geo.Rect) geo.Rect {
	f := cell
	if math.IsInf(f.MinX, -1) {
		f.MinX = 0
	}
	if math.IsInf(f.MaxX, 1) {
		f.MaxX = 1
	}
	if math.IsInf(f.MinY, -1) {
		f.MinY = 0
	}
	if math.IsInf(f.MaxY, 1) {
		f.MaxY = 1
	}
	return f
}

// finish computes the coverage rectangles and the content version.
func (m *Map) finish() {
	m.cover = make([]geo.Rect, len(m.Cells))
	for i, c := range m.Cells {
		m.cover[i] = geo.Rect{
			MinX: c.MinX - m.PadX, MaxX: c.MaxX + m.PadX,
			MinY: c.MinY - m.PadY, MaxY: c.MaxY + m.PadY,
		}
	}
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	word(uint64(len(m.Cells)))
	word(math.Float64bits(m.PadX))
	word(math.Float64bits(m.PadY))
	for _, c := range m.Cells {
		word(math.Float64bits(c.MinX))
		word(math.Float64bits(c.MaxX))
		word(math.Float64bits(c.MinY))
		word(math.Float64bits(c.MaxY))
	}
	m.Version = h.Sum64()
}

// K returns the shard count.
func (m *Map) K() int { return len(m.Cells) }

// Owner returns the index of the shard owning r: the first cell containing
// r's center (cells tile the plane; centers on a shared boundary go to the
// lower-indexed cell, deterministically).
func (m *Map) Owner(r geo.Rect) int {
	cx, cy := r.Center()
	for i, c := range m.Cells {
		if c.ContainsPoint(cx, cy) {
			return i
		}
	}
	return 0 // unreachable for valid rects: the cells tile the plane
}

// Targets appends to out the indices of every shard whose coverage
// intersects q — the scatter set for a search. out is reused scratch.
func (m *Map) Targets(q geo.Rect, out []int) []int {
	out = out[:0]
	for i, c := range m.cover {
		if c.Intersects(q) {
			out = append(out, i)
		}
	}
	return out
}

// CoverDistSq returns the squared distance from (x, y) to shard s's
// coverage rectangle. An entry owned by a cell never protrudes past the
// cell's coverage, so this is a lower bound on the distance from (x, y) to
// any entry shard s can hold — the ordering and pruning bound of the
// routers' best-first cross-shard kNN gather.
func (m *Map) CoverDistSq(s int, x, y float64) float64 {
	return m.cover[s].DistSqToPoint(x, y)
}

// Assign buckets entries by owner; the i-th slice is shard i's bulk-load
// set. Every server of a deployment derives the identical assignment from
// the identical dataset.
func (m *Map) Assign(entries []rtree.Entry) [][]rtree.Entry {
	out := make([][]rtree.Entry, len(m.Cells))
	for _, e := range entries {
		i := m.Owner(e.Rect)
		out[i] = append(out[i], e)
	}
	return out
}
