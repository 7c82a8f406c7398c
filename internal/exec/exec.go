// Package exec executes Catfish fast-messaging requests against one
// R-tree. It owns request semantics and nothing else: search, fetch, kNN,
// insert, delete, MOVE and promote; the killed and not-primary checks;
// replication stamping; mailbox delivery of fetch results; batching under
// one latch hold; backup-side replica apply; the op counters; and the
// response encoders. It knows nothing about how a request arrived or what
// it costs.
//
// The simulated server (internal/server) and the real-socket server
// (internal/rpcnet) both run every request through an Executor. Each keeps
// only its framing, its latch implementation and its cost accounting.
// Remote fetching changes how a result is delivered, never how it is
// computed (RFP, PAPERS.md arXiv:1512.07805), so one executor serves both.
//
// The type parameter P is the caller's execution context: the simulated
// process on the simulated fabric, struct{} over real sockets. The
// executor hands it back to the latch and to the transport hooks.
//
// The package also holds the client side of two request shapes, shared by
// both transports' clients and the shard router: the kNN answer's
// conversion between tree and wire form, and One, which runs a batched
// operation through an unbatched API.
package exec

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// Latch is the transport's readers-writer tree latch. *sim.RWLock
// satisfies Latch[*sim.Proc] as is.
type Latch[P any] interface {
	RLock(P)
	RUnlock()
	Lock(P)
	Unlock()
}

// Mode is the latch a request type executes under.
type Mode uint8

// Latch modes.
const (
	// None: the request does not touch the tree (promote, unknown types).
	None Mode = iota
	// Shared: reads, which run in parallel under the read latch.
	Shared
	// Exclusive: writes.
	Exclusive
)

// ModeOf returns the latch mode requests of type t execute under.
func ModeOf(t wire.MsgType) Mode {
	switch t {
	case wire.MsgSearch, wire.MsgSearchFetch, wire.MsgKNN, wire.MsgKNNFetch:
		return Shared
	case wire.MsgInsert, wire.MsgDelete, wire.MsgMove:
		return Exclusive
	}
	return None
}

// ErrNotReplica is returned by ApplyRecords on a server without replication.
var ErrNotReplica = errors.New("exec: not a replica member")

// Counters are the executor's op counters. Each request increments exactly
// one per-type counter; transports derive their public snapshots from them.
type Counters struct {
	Searches      atomic.Uint64 // MsgSearch
	SearchFetches atomic.Uint64 // MsgSearchFetch
	KNNs          atomic.Uint64 // MsgKNN
	KNNFetches    atomic.Uint64 // MsgKNNFetch
	Inserts       atomic.Uint64
	Deletes       atomic.Uint64
	Moves         atomic.Uint64
	Promotions    atomic.Uint64 // accepted MsgPromote requests
	Results       atomic.Uint64 // items produced by successful reads
	FetchInline   atomic.Uint64 // fetch reads answered inline
	FetchBytes    atomic.Uint64 // payload bytes written to mailbox slots
	Segments      atomic.Uint64 // response segments encoded
	Batches       atomic.Uint64 // batch containers executed
	BatchedOps    atomic.Uint64 // operations those containers carried
	ReplRecords   atomic.Uint64 // replicated records applied as a backup
}

// Result is one executed request's outcome.
type Result struct {
	ID     uint64
	Status uint8
	// Items is the inline answer of a read; Desc replaces it when Fetched
	// (the answer was written to a mailbox slot).
	Items   []wire.Item
	Desc    wire.FetchDesc
	Fetched bool
	// Ran reports that the request reached the tree: the server was alive
	// and, for a write, primary.
	Ran bool
	// Stats is the tree work done, for cost accounting; Err the tree error
	// behind a StatusError, for tracing.
	Stats rtree.OpStats
	Err   error
}

// Executor applies requests to Tree. Configure it with a struct literal;
// the zero values of the optional fields disable what they control.
type Executor[P any] struct {
	Tree  *rtree.Tree
	Latch Latch[P]
	// Mailbox receives fetch results larger than FetchInlineMax items (nil
	// answers every fetch inline).
	Mailbox        *region.Mailbox
	FetchInlineMax int
	// MaxSegmentItems caps the items per response segment.
	MaxSegmentItems int
	// Replica arms epoch fencing, op-log stamping and the refusal of
	// client writes while backup; nil runs unreplicated.
	Replica *replica.State
	// Stage, when set, brackets every tree insert: it is called with on
	// true before the insert and false after it. The simulator publishes
	// the insert's node writes over a torn-write window from ctx's process.
	Stage func(ctx P, on bool)
	// Ship sends one stamped mutation to the backups before the write is
	// acknowledged, under the exclusive latch.
	Ship func(ctx P, rec replica.Record) error
	// Forward mirrors one replicated mutation to a reshard target.
	Forward func(op wire.MsgType, r geo.Rect, ref uint64) error
	// OnRecord runs under the exclusive latch after ApplyRecords applies a
	// record.
	OnRecord func(ctx P, rec replica.Record, st rtree.OpStats)

	Counters
	killed atomic.Bool
}

// Kill makes the executor refuse all work: every request is answered
// StatusUnavailable and replicated records are rejected. Irreversible.
func (e *Executor[P]) Kill() { e.killed.Store(true) }

// Killed reports whether Kill has been called.
func (e *Executor[P]) Killed() bool { return e.killed.Load() }

// Do executes one request, taking the latch its type needs.
func (e *Executor[P]) Do(ctx P, req wire.Request) Result {
	if e.killed.Load() {
		return Result{ID: req.ID, Status: wire.StatusUnavailable}
	}
	var r Result
	switch ModeOf(req.Type) {
	case Shared:
		e.Latch.RLock(ctx)
		e.apply(ctx, &req, &r)
		e.Latch.RUnlock()
	case Exclusive:
		e.Latch.Lock(ctx)
		e.apply(ctx, &req, &r)
		e.Latch.Unlock()
	default:
		e.apply(ctx, &req, &r)
	}
	return r
}

// DoBatch executes a batch under one latch hold, exclusive when any
// operation writes, appending one result per request to res[:0]. Only data
// operations run in a batch; others are answered StatusError. ran is false
// when nothing executed: an empty batch, or a killed server (every
// operation answered StatusUnavailable).
func (e *Executor[P]) DoBatch(ctx P, reqs []wire.Request, res []Result) (out []Result, ran bool) {
	if len(reqs) == 0 {
		return res[:0], false
	}
	if e.killed.Load() {
		return Answer(reqs, wire.StatusUnavailable, res), false
	}
	e.Batches.Add(1)
	e.BatchedOps.Add(uint64(len(reqs)))
	write := slices.ContainsFunc(reqs, func(r wire.Request) bool { return ModeOf(r.Type) == Exclusive })
	if write {
		e.Latch.Lock(ctx)
	} else {
		e.Latch.RLock(ctx)
	}
	res = slices.Grow(res[:0], len(reqs))
	for i := range reqs {
		r := Result{ID: reqs[i].ID, Status: wire.StatusError}
		if ModeOf(reqs[i].Type) != None {
			e.apply(ctx, &reqs[i], &r)
		}
		res = append(res, r)
	}
	if write {
		e.Latch.Unlock()
	} else {
		e.Latch.RUnlock()
	}
	return res, true
}

// Answer appends to res[:0] one result of the given status per request,
// executing nothing: the reply of a killed, oversized or shed batch.
func Answer(reqs []wire.Request, status uint8, res []Result) []Result {
	res = slices.Grow(res[:0], len(reqs))
	for i := range reqs {
		res = append(res, Result{ID: reqs[i].ID, Status: status})
	}
	return res
}

// DecodeBatch decodes a batch container's requests into reqs[:0]. A
// malformed sub-message decodes to the zero Request, which executes as an
// error with ID 0.
func DecodeBatch(payload []byte, reqs []wire.Request) ([]wire.Request, error) {
	it, err := wire.DecodeBatch(payload)
	if err != nil {
		return reqs[:0], err
	}
	reqs = slices.Grow(reqs[:0], it.Len())
	for {
		msg, ok := it.Next()
		if !ok {
			break
		}
		req, err := wire.DecodeRequest(msg)
		if err != nil {
			req = wire.Request{}
		}
		reqs = append(reqs, req)
	}
	return reqs, it.Err()
}

// apply executes one request; the caller holds the latch ModeOf names.
func (e *Executor[P]) apply(ctx P, req *wire.Request, r *Result) {
	r.ID = req.ID
	switch req.Type {
	case wire.MsgSearch, wire.MsgSearchFetch, wire.MsgKNN, wire.MsgKNNFetch:
		e.read(req, r)
	case wire.MsgInsert:
		e.Inserts.Add(1)
		if e.refuse(r) {
			return
		}
		st, err := e.insert(ctx, req.Rect, req.Ref)
		r.Stats = st
		if err != nil {
			r.Status, r.Err = wire.StatusError, err
			return
		}
		r.Status = e.Commit(ctx, wire.MsgInsert, req.Rect, req.Ref)
	case wire.MsgDelete:
		e.Deletes.Add(1)
		if e.refuse(r) {
			return
		}
		ok, st, err := e.Tree.Delete(req.Rect, req.Ref)
		r.Stats = st
		switch {
		case err != nil:
			r.Status, r.Err = wire.StatusError, err
		case !ok:
			r.Status = wire.StatusNotFound
		default:
			r.Status = e.Commit(ctx, wire.MsgDelete, req.Rect, req.Ref)
		}
	case wire.MsgMove:
		e.Moves.Add(1)
		if e.refuse(r) {
			return
		}
		e.move(ctx, req, r)
	case wire.MsgPromote:
		// Failover control plane: adopt req.Ref as the shard's new epoch
		// and start accepting client writes, fencing the deposed lineage.
		if e.Replica == nil {
			r.Status = wire.StatusError
			return
		}
		if e.Replica.Promote(req.Ref) {
			e.Promotions.Add(1)
		}
		r.Status = wire.StatusOK
	default:
		r.Status = wire.StatusError
	}
}

// refuse answers a client write on a backup with StatusNotPrimary and
// reports whether it did; otherwise it marks the write as run.
func (e *Executor[P]) refuse(r *Result) bool {
	if e.Replica != nil && !e.Replica.Primary() {
		r.Status = wire.StatusNotPrimary
		return true
	}
	r.Ran = true
	return false
}

// move relocates (Rect, Ref) to (Rect2, Ref) under one exclusive latch
// hold, so no concurrent search observes the object absent. A missing
// source degrades the move to a plain insert: the state the equivalent
// delete-then-insert stream reaches. The delete half publishes atomically;
// only the insert is staged. Replication ships the pair as two records,
// the delete only when a source entry existed.
func (e *Executor[P]) move(ctx P, req *wire.Request, r *Result) {
	deleted, st, err := e.Tree.Delete(req.Rect, req.Ref)
	r.Stats = st
	if err != nil {
		r.Status, r.Err = wire.StatusError, err
		return
	}
	if deleted {
		if r.Status = e.Commit(ctx, wire.MsgDelete, req.Rect, req.Ref); r.Status != wire.StatusOK {
			return
		}
	}
	ist, err := e.insert(ctx, req.Rect2, req.Ref)
	r.Stats.NodesRead += ist.NodesRead
	r.Stats.NodesWritten += ist.NodesWritten
	if err != nil {
		r.Status, r.Err = wire.StatusError, err
		return
	}
	r.Status = e.Commit(ctx, wire.MsgInsert, req.Rect2, req.Ref)
}

// read runs a search or kNN and delivers a fetch read's answer through the
// mailbox when it qualifies.
func (e *Executor[P]) read(req *wire.Request, r *Result) {
	var items []wire.Item
	var err error
	fetch := false
	switch req.Type {
	case wire.MsgSearch:
		e.Searches.Add(1)
		items, r.Stats, err = e.search(req.Rect)
	case wire.MsgSearchFetch:
		e.SearchFetches.Add(1)
		fetch = true
		items, r.Stats, err = e.search(req.Rect)
	case wire.MsgKNN:
		e.KNNs.Add(1)
		items, r.Stats, err = e.nearest(req)
	case wire.MsgKNNFetch:
		e.KNNFetches.Add(1)
		fetch = true
		items, r.Stats, err = e.nearest(req)
	}
	r.Ran = true
	if err != nil {
		r.Status, r.Err = wire.StatusError, err
		return
	}
	r.Status = wire.StatusOK
	e.Results.Add(uint64(len(items)))
	if fetch {
		if e.deliver(items, r) {
			return
		}
		e.FetchInline.Add(1)
	}
	r.Items = items
}

// search collects every item intersecting q. SearchShared touches no tree
// scratch state, so searches run in parallel under the read latch.
func (e *Executor[P]) search(q geo.Rect) ([]wire.Item, rtree.OpStats, error) {
	var items []wire.Item
	st, err := e.Tree.SearchShared(q, func(r geo.Rect, ref uint64) bool {
		items = append(items, wire.Item{Rect: r, Ref: ref})
		return true
	})
	return items, st, err
}

// nearest answers a kNN request: the query point is the rect's center and
// k rides Ref. The neighbors come back in ascending distance order.
func (e *Executor[P]) nearest(req *wire.Request) ([]wire.Item, rtree.OpStats, error) {
	x, y := req.Rect.Center()
	nbrs, st, err := e.Tree.NearestShared(int(req.Ref), x, y)
	if err != nil {
		return nil, st, err
	}
	return ItemsOf(nbrs), st, nil
}

// deliver writes a fetch read's items into a granted mailbox slot and sets
// r's descriptor. Slot packing preserves item order, so a kNN answer
// survives the pull sorted. It declines (inline delivery) when fetch is
// disabled, the result is small enough that sending beats pulling, the
// payload exceeds a slot, or every slot is taken.
func (e *Executor[P]) deliver(items []wire.Item, r *Result) bool {
	mb := e.Mailbox
	if mb == nil || len(items) <= e.FetchInlineMax || len(items)*wire.ItemSize > mb.Capacity() {
		return false
	}
	slot, ok := mb.Grant()
	if !ok {
		return false
	}
	ref, err := mb.WriteResult(slot, wire.EncodeItems(nil, items))
	if err != nil {
		mb.Cancel(slot)
		return false
	}
	e.FetchBytes.Add(uint64(ref.Bytes))
	r.Desc = wire.FetchDesc{
		ID:     r.ID,
		Status: wire.StatusOK,
		Slot:   uint32(ref.Slot),
		Bytes:  uint32(ref.Bytes),
		Count:  uint32(len(items)),
		Seq:    ref.Seq,
	}
	r.Fetched = true
	return true
}

func (e *Executor[P]) insert(ctx P, r geo.Rect, ref uint64) (rtree.OpStats, error) {
	if e.Stage != nil {
		e.Stage(ctx, true)
		defer e.Stage(ctx, false)
	}
	return e.Tree.Insert(r, ref)
}

// Commit stamps one applied mutation with the shard's (epoch, seq), ships
// it to the backups, and mirrors it to a reshard target, returning the
// status the write answers with. The caller holds the exclusive latch, so
// sequence order is apply order and the acknowledgement cannot outrun the
// backups. Without Replica only the mirror runs.
func (e *Executor[P]) Commit(ctx P, op wire.MsgType, r geo.Rect, ref uint64) uint8 {
	if e.Replica != nil {
		epoch, seq, err := e.Replica.Next()
		if err != nil {
			return StatusOf(err)
		}
		if e.Ship != nil {
			rec := replica.Record{Epoch: epoch, Seq: seq, Op: op, Rect: r, Ref: ref}
			if err := e.Ship(ctx, rec); err != nil {
				return StatusOf(err)
			}
		}
	}
	if e.Forward != nil {
		if err := e.Forward(op, r, ref); err != nil {
			return wire.StatusError
		}
	}
	return wire.StatusOK
}

// StatusOf maps a replication-path error to the wire status a client
// decodes back into the same sentinel (replica.StatusError is the inverse).
func StatusOf(err error) uint8 {
	switch {
	case errors.Is(err, replica.ErrNotPrimary):
		return wire.StatusNotPrimary
	case errors.Is(err, replica.ErrFenced):
		return wire.StatusFenced
	case errors.Is(err, replica.ErrUnavailable):
		return wire.StatusUnavailable
	}
	return wire.StatusError
}

// ApplyRecords applies a primary's replicated mutations on this backup
// under one exclusive latch hold. Replica.Accept fences each record's
// epoch and checks its sequence; a record at or below the applied sequence
// (a resend overlap) is skipped. It stops at the first record that fails.
func (e *Executor[P]) ApplyRecords(ctx P, recs []replica.Record) error {
	if e.Replica == nil {
		return ErrNotReplica
	}
	if e.killed.Load() {
		return replica.ErrUnavailable
	}
	e.Latch.Lock(ctx)
	defer e.Latch.Unlock()
	for _, rec := range recs {
		if err := e.Replica.Accept(rec.Epoch, rec.Seq); err != nil {
			var gap *replica.GapError
			if errors.As(err, &gap) && gap.Got <= gap.Applied {
				continue
			}
			return err
		}
		var st rtree.OpStats
		var err error
		switch rec.Op {
		case wire.MsgInsert:
			st, err = e.insert(ctx, rec.Rect, rec.Ref)
		case wire.MsgDelete:
			_, st, err = e.Tree.Delete(rec.Rect, rec.Ref)
		default:
			err = fmt.Errorf("exec: replicated op %d is not a mutation", rec.Op)
		}
		if err != nil {
			return err
		}
		e.ReplRecords.Add(1)
		if e.OnRecord != nil {
			e.OnRecord(ctx, rec, st)
		}
	}
	return nil
}

// NewMailbox builds a fetch mailbox of slots result slots, slotChunks
// chunks each, in a dedicated region so slot traffic never touches the tree
// region's allocator. The region is returned for serving pulls.
func NewMailbox(slots, slotChunks, chunkSize int) (*region.Mailbox, *region.Region, error) {
	reg, err := region.New(slots*slotChunks, chunkSize)
	if err != nil {
		return nil, nil, fmt.Errorf("exec: mailbox region: %w", err)
	}
	mb, err := region.NewMailbox(reg, slots, slotChunks)
	if err != nil {
		return nil, nil, fmt.Errorf("exec: mailbox: %w", err)
	}
	return mb, reg, nil
}

// Register exposes on reg, under catfish_server_* names, the counters
// whose meaning every transport shares and the mailbox gauges.
func (e *Executor[P]) Register(reg *telemetry.Registry) {
	reg.CounterFunc("catfish_server_inserts_total", e.Inserts.Load)
	reg.CounterFunc("catfish_server_deletes_total", e.Deletes.Load)
	reg.CounterFunc("catfish_server_moves_total", e.Moves.Load)
	reg.CounterFunc("catfish_server_knn_total", func() uint64 { return e.KNNs.Load() + e.KNNFetches.Load() })
	reg.CounterFunc("catfish_server_batches_total", e.Batches.Load)
	reg.CounterFunc("catfish_server_batched_ops_total", e.BatchedOps.Load)
	reg.CounterFunc("catfish_server_fetch_inline_total", e.FetchInline.Load)
	reg.CounterFunc("catfish_server_fetch_bytes_total", e.FetchBytes.Load)
	if mb := e.Mailbox; mb != nil {
		reg.CounterFunc("catfish_server_fetch_exhausted_total", mb.Exhausted)
		reg.GaugeFunc("catfish_server_mailbox_slots_used", func() float64 {
			used, _ := mb.Occupancy()
			return float64(used)
		})
		reg.GaugeFunc("catfish_server_mailbox_slots_total", func() float64 {
			_, total := mb.Occupancy()
			return float64(total)
		})
	}
}
