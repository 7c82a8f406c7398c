package shard

import (
	"sort"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/wire"
)

// MergeNeighbors merges two ascending-distance neighbor lists, keeping at
// most k. Ties break by (ref, rect) so the merge is a total order and
// identical entries land adjacent, where the dedup drops the copy a
// reshard dual-write window may have produced.
func MergeNeighbors(a, b []rtree.Neighbor, k int) []rtree.Neighbor {
	out := make([]rtree.Neighbor, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var n rtree.Neighbor
		switch {
		case j >= len(b):
			n, i = a[i], i+1
		case i >= len(a):
			n, j = b[j], j+1
		case neighborLess(a[i], b[j]):
			n, i = a[i], i+1
		default:
			n, j = b[j], j+1
		}
		if len(out) > 0 && sameNeighbor(out[len(out)-1], n) {
			continue
		}
		out = append(out, n)
		if len(out) == k {
			break
		}
	}
	return out
}

func neighborLess(a, b rtree.Neighbor) bool {
	if a.DistSq != b.DistSq {
		return a.DistSq < b.DistSq
	}
	if a.Ref != b.Ref {
		return a.Ref < b.Ref
	}
	if a.Rect.MinX != b.Rect.MinX {
		return a.Rect.MinX < b.Rect.MinX
	}
	return a.Rect.MinY < b.Rect.MinY
}

func sameNeighbor(a, b rtree.Neighbor) bool {
	return a.Ref == b.Ref && a.Rect == b.Rect
}

// KBestItems reduces the concatenation of per-shard ascending k-best lists
// to the global k nearest: sort by recomputed distance (ties by ref, then
// rect, the same total order MergeNeighbors uses), dedup identical entries
// from reshard dual-write windows, keep k.
func KBestItems(items []wire.Item, k int, q geo.Rect) []wire.Item {
	x, y := q.Center()
	nbr := func(it wire.Item) rtree.Neighbor {
		return rtree.Neighbor{Rect: it.Rect, Ref: it.Ref, DistSq: it.Rect.DistSqToPoint(x, y)}
	}
	sort.Slice(items, func(a, b int) bool { return neighborLess(nbr(items[a]), nbr(items[b])) })
	out := items[:0]
	for _, it := range items {
		if len(out) > 0 {
			if last := out[len(out)-1]; last.Ref == it.Ref && last.Rect == it.Rect {
				continue
			}
		}
		out = append(out, it)
		if len(out) == k {
			break
		}
	}
	return out
}

// itemKey identifies one entry for post-adoption deduplication.
type itemKey struct {
	ref  uint64
	rect geo.Rect
}

// dedupItems collapses duplicate (ref, rect) entries in place, keeping
// first occurrences in merge order.
func dedupItems(items []wire.Item) []wire.Item {
	seen := make(map[itemKey]struct{}, len(items))
	out := items[:0]
	for _, it := range items {
		k := itemKey{ref: it.Ref, rect: it.Rect}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, it)
	}
	return out
}
