package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	catfish "github.com/catfish-db/catfish"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/wire"
	"github.com/catfish-db/catfish/internal/workload"
)

// fleetKNNChecks is the number of post-run kNN answers compared.
const fleetKNNChecks = 200

// checkSamples compares every sampled read-only answer with the local
// tree built from the same seed. It returns how many it checked and how
// many differed.
func checkSamples(tree *rtree.Tree, clients []*client) (checked, wrong int, err error) {
	for _, c := range clients {
		for _, a := range c.samples {
			entries, _, err := tree.SearchCollect(a.q)
			if err != nil {
				return checked, wrong, err
			}
			items := make([]wire.Item, len(entries))
			for i, e := range entries {
				items[i] = wire.Item{Rect: e.Rect, Ref: e.Ref}
			}
			if answerOf(a.q, items) != a {
				wrong++
			}
			checked++
		}
	}
	return checked, wrong, nil
}

// fleetState is the dataset the servers must hold after a fleet run: the
// static background plus every object at its last acknowledged position.
func fleetState(seed int64, clients []*client) []rtree.Entry {
	out := workload.UniformRects(fleetBackground, 0.0001, seed)
	for _, c := range clients {
		for i, r := range c.acked {
			out = append(out, rtree.Entry{Rect: r, Ref: c.fleet.objs.Ref(i)})
		}
	}
	return out
}

// checkFleet scans the whole deployment and checks that every entry sits
// exactly once where it should, then compares kNN answers with a local
// tree of the final state. The scan counts as one check, failed by any
// misplaced, missing or duplicated entry.
func checkFleet(conn catfish.Conn, seed int64, clients []*client) (checked, wrong int, err error) {
	want := fleetState(seed, clients)
	items, _, err := conn.Search(geo.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2})
	if err != nil {
		return 0, 0, fmt.Errorf("fleet scan: %w", err)
	}
	pos := make(map[uint64]geo.Rect, len(want))
	for _, e := range want {
		pos[e.Ref] = e.Rect
	}
	seen := make(map[uint64]int, len(items))
	bad := len(items) != len(want)
	for _, it := range items {
		if r, ok := pos[it.Ref]; !ok || r != it.Rect {
			bad = true
		}
		seen[it.Ref]++
	}
	for ref := range pos {
		if seen[ref] != 1 {
			bad = true
		}
	}
	checked = 1
	if bad {
		wrong = 1
	}

	tree, err := buildTree(want)
	if err != nil {
		return checked, wrong, err
	}
	r := rng(seed, "check", 0)
	for i := 0; i < fleetKNNChecks; i++ {
		x, y := r.Float64(), r.Float64()
		got, _, err := conn.Nearest(fleetKNN, x, y)
		if err != nil {
			return checked, wrong, fmt.Errorf("fleet kNN check: %w", err)
		}
		exp, _, err := tree.Nearest(fleetKNN, x, y)
		if err != nil {
			return checked, wrong, err
		}
		if !sameNeighbors(got, exp) {
			wrong++
		}
		checked++
	}
	return checked, wrong, nil
}

// sameNeighbors compares two kNN answers as (distance, ref) lists, so
// entries at equal distance may come in either order. Distances are
// recomputed on each side, so they match to rounding, not bit for bit.
func sameNeighbors(a, b []rtree.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	order := func(x, y rtree.Neighbor) int {
		if c := cmp.Compare(x.DistSq, y.DistSq); c != 0 {
			return c
		}
		return cmp.Compare(x.Ref, y.Ref)
	}
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, order)
	slices.SortFunc(b, order)
	for i := range a {
		if a[i].Ref != b[i].Ref || a[i].Rect != b[i].Rect ||
			math.Abs(a[i].DistSq-b[i].DistSq) > 1e-12*max(a[i].DistSq, 1e-12) {
			return false
		}
	}
	return true
}

// guard checks from the counters that the workload ran the path it is
// meant to measure; a silent fallback or a skipped shard fails the run.
func guard(name string, d window) error {
	switch name {
	case "fast-point":
		if reads := d.srv.ChunkReads + d.srv.SpanReads + d.srv.VersionReads; reads != 0 || d.conn.NodesFetched != 0 {
			return fmt.Errorf("fast-point: %d chunk reads, want 0", reads+d.conn.NodesFetched)
		}
		if d.srv.Searches == 0 {
			return fmt.Errorf("fast-point: no server searches")
		}
	case "offload-range":
		if d.srv.Searches != 0 {
			return fmt.Errorf("offload-range: %d server searches, want 0", d.srv.Searches)
		}
		if d.srv.ChunkReads+d.srv.SpanReads == 0 {
			return fmt.Errorf("offload-range: no chunk or span reads")
		}
	case "fleet-mixed":
		if d.srv.MailboxReads == 0 {
			return fmt.Errorf("fleet-mixed: no mailbox reads")
		}
		if d.conn.FetchFallbacks != 0 {
			return fmt.Errorf("fleet-mixed: %d fetch fallbacks, want 0", d.conn.FetchFallbacks)
		}
		if d.router.Skipped != 0 {
			return fmt.Errorf("fleet-mixed: %d skipped shards, want 0", d.router.Skipped)
		}
	}
	return nil
}
