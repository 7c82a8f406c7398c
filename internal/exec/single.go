package exec

import (
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/wire"
)

// Single is the unbatched operation set of a client or router; C is the
// caller's execution context.
type Single[C any] interface {
	Search(ctx C, q geo.Rect) ([]wire.Item, wire.Method, error)
	Insert(ctx C, r geo.Rect, ref uint64) error
	Delete(ctx C, r geo.Rect, ref uint64) error
	Move(ctx C, from, to geo.Rect, ref uint64) error
	Nearest(ctx C, k int, x, y float64) ([]rtree.Neighbor, wire.Method, error)
}

// One runs a batched operation through s's unbatched path: the batch of
// one on both transports' clients, and the router's retry of a batched
// operation that hit a failover-class error or a shed.
func One[C any](s Single[C], ctx C, op wire.BatchOp) wire.BatchResult {
	res := wire.BatchResult{Method: wire.MethodFast}
	switch op.Type {
	case wire.MsgInsert:
		res.Err = s.Insert(ctx, op.Rect, op.Ref)
	case wire.MsgDelete:
		res.Err = s.Delete(ctx, op.Rect, op.Ref)
	case wire.MsgMove:
		res.Err = s.Move(ctx, op.Rect, op.Rect2, op.Ref)
	case wire.MsgKNN:
		x, y := op.Rect.Center()
		var nbrs []rtree.Neighbor
		nbrs, res.Method, res.Err = s.Nearest(ctx, int(op.Ref), x, y)
		res.Items = ItemsOf(nbrs)
	default:
		res.Items, res.Method, res.Err = s.Search(ctx, op.Rect)
	}
	return res
}

// ItemsOf flattens a kNN answer to its wire form, preserving the ascending
// distance order.
func ItemsOf(nbrs []rtree.Neighbor) []wire.Item {
	if len(nbrs) == 0 {
		return nil
	}
	items := make([]wire.Item, len(nbrs))
	for i, n := range nbrs {
		items[i] = wire.Item{Rect: n.Rect, Ref: n.Ref}
	}
	return items
}

// NeighborsOf rebuilds a kNN answer for the point (x, y) from its wire
// form. The server sends items in ascending distance order, and DistSq is
// recomputed here with the same geo.Rect.DistSqToPoint the tree's
// best-first search used — rectangles round-trip bit-exactly, so the
// distances (and therefore the whole result) match a local Nearest call
// exactly.
func NeighborsOf(items []wire.Item, x, y float64) []rtree.Neighbor {
	if len(items) == 0 {
		return nil
	}
	out := make([]rtree.Neighbor, len(items))
	for i, it := range items {
		out[i] = rtree.Neighbor{Rect: it.Rect, Ref: it.Ref, DistSq: it.Rect.DistSqToPoint(x, y)}
	}
	return out
}
