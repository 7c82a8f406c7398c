package exec

import (
	"errors"
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/wire"
)

// countLatch records the latch holds taken and those still held.
type countLatch struct {
	shared, excl int
	heldS, heldX int
}

func (l *countLatch) RLock(struct{}) { l.shared++; l.heldS++ }
func (l *countLatch) RUnlock()       { l.heldS-- }
func (l *countLatch) Lock(struct{})  { l.excl++; l.heldX++ }
func (l *countLatch) Unlock()        { l.heldX-- }

func newExec(t *testing.T, items int) (*Executor[struct{}], *countLatch) {
	t.Helper()
	reg, err := region.New(1<<10, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := rtree.New(reg, rtree.Config{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < items; i++ {
		x := float64(i) / float64(items)
		if _, err := tree.Insert(geo.Rect{MinX: x, MaxX: x, MinY: x, MaxY: x}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	l := &countLatch{}
	return &Executor[struct{}]{Tree: tree, Latch: l, MaxSegmentItems: 4}, l
}

var all = geo.Rect{MaxX: 1, MaxY: 1}

func TestDoTakesTheLatchItsTypeNeeds(t *testing.T) {
	ex, l := newExec(t, 10)
	if r := ex.Do(struct{}{}, wire.Request{Type: wire.MsgSearch, ID: 1, Rect: all}); r.Status != wire.StatusOK || len(r.Items) != 10 {
		t.Fatalf("search: status %d, %d items", r.Status, len(r.Items))
	}
	if r := ex.Do(struct{}{}, wire.Request{Type: wire.MsgInsert, ID: 2, Rect: all, Ref: 99}); r.Status != wire.StatusOK || !r.Ran {
		t.Fatalf("insert: status %d ran %v", r.Status, r.Ran)
	}
	if r := ex.Do(struct{}{}, wire.Request{Type: wire.MsgPromote, ID: 3}); r.Status != wire.StatusError {
		t.Fatalf("promote without replica: status %d", r.Status)
	}
	if l.shared != 1 || l.excl != 1 || l.heldS != 0 || l.heldX != 0 {
		t.Errorf("latch: %d shared, %d exclusive, held %d/%d", l.shared, l.excl, l.heldS, l.heldX)
	}
	if ex.Searches.Load() != 1 || ex.Inserts.Load() != 1 || ex.Results.Load() != 10 {
		t.Errorf("counters: searches %d inserts %d results %d", ex.Searches.Load(), ex.Inserts.Load(), ex.Results.Load())
	}
}

func TestDoBatchOneHold(t *testing.T) {
	ex, l := newExec(t, 10)
	reads := []wire.Request{
		{Type: wire.MsgSearch, ID: 1, Rect: all},
		{Type: wire.MsgKNN, ID: 2, Rect: geo.Rect{MinX: 0.5, MaxX: 0.5, MinY: 0.5, MaxY: 0.5}, Ref: 3},
		{Type: wire.MsgPromote, ID: 3},
	}
	res, ran := ex.DoBatch(struct{}{}, reads, nil)
	if !ran || len(res) != 3 || l.shared != 1 || l.excl != 0 {
		t.Fatalf("read batch: ran %v, %d results, latch %d/%d", ran, len(res), l.shared, l.excl)
	}
	if res[0].Status != wire.StatusOK || len(res[1].Items) != 3 || res[2].Status != wire.StatusError {
		t.Errorf("read batch results: %+v", res)
	}
	mixed := append(reads[:1:1], wire.Request{Type: wire.MsgDelete, ID: 4, Rect: all, Ref: 12345})
	res, _ = ex.DoBatch(struct{}{}, mixed, res)
	if l.excl != 1 || l.shared != 1 || res[1].Status != wire.StatusNotFound {
		t.Errorf("write batch: latch %d/%d, delete status %d", l.shared, l.excl, res[1].Status)
	}
	if ex.Batches.Load() != 2 || ex.BatchedOps.Load() != 5 {
		t.Errorf("batches %d ops %d", ex.Batches.Load(), ex.BatchedOps.Load())
	}

	ex.Kill()
	res, ran = ex.DoBatch(struct{}{}, mixed, res)
	if ran || res[0].Status != wire.StatusUnavailable || res[1].ID != 4 || l.excl != 1 {
		t.Errorf("killed batch: ran %v results %+v", ran, res)
	}
}

func TestBackupRefusesClientWrites(t *testing.T) {
	ex, _ := newExec(t, 4)
	ex.Replica = replica.NewState(1, false)
	r := ex.Do(struct{}{}, wire.Request{Type: wire.MsgMove, ID: 1, Rect: all, Rect2: all, Ref: 1})
	if r.Status != wire.StatusNotPrimary || r.Ran {
		t.Fatalf("move on backup: status %d ran %v", r.Status, r.Ran)
	}
	if ex.Tree.Len() != 4 {
		t.Errorf("refused move changed the tree: %d entries", ex.Tree.Len())
	}
	if r := ex.Do(struct{}{}, wire.Request{Type: wire.MsgPromote, ID: 2, Ref: 2}); r.Status != wire.StatusOK || ex.Promotions.Load() != 1 {
		t.Fatalf("promote: status %d promotions %d", r.Status, ex.Promotions.Load())
	}
	var shipped []replica.Record
	ex.Ship = func(_ struct{}, rec replica.Record) error { shipped = append(shipped, rec); return nil }
	p := geo.Rect{MinX: 0.9, MaxX: 0.9, MinY: 0.1, MaxY: 0.1}
	if r := ex.Do(struct{}{}, wire.Request{Type: wire.MsgMove, ID: 3, Rect: all, Rect2: p, Ref: 7}); r.Status != wire.StatusOK {
		t.Fatalf("move of a missing entry: status %d", r.Status)
	}
	if len(shipped) != 1 || shipped[0].Op != wire.MsgInsert || shipped[0].Epoch != 2 || shipped[0].Seq != 1 {
		t.Errorf("upsert move shipped %+v, want one insert record at (2, 1)", shipped)
	}
}

func TestApplyRecordsSkipsResendOverlap(t *testing.T) {
	ex, _ := newExec(t, 0)
	ex.Replica = replica.NewState(1, false)
	rec := func(seq uint64) replica.Record {
		return replica.Record{Epoch: 1, Seq: seq, Op: wire.MsgInsert, Rect: all, Ref: seq}
	}
	if err := ex.ApplyRecords(struct{}{}, []replica.Record{rec(1), rec(2)}); err != nil {
		t.Fatal(err)
	}
	if err := ex.ApplyRecords(struct{}{}, []replica.Record{rec(2), rec(3)}); err != nil {
		t.Fatalf("overlapping resend: %v", err)
	}
	if ex.Tree.Len() != 3 || ex.ReplRecords.Load() != 3 {
		t.Errorf("applied %d entries, %d records; want 3", ex.Tree.Len(), ex.ReplRecords.Load())
	}
	var gap *replica.GapError
	if err := ex.ApplyRecords(struct{}{}, []replica.Record{rec(5)}); !errors.As(err, &gap) || StatusOf(err) != wire.StatusError {
		t.Errorf("gap: %v", err)
	}
	stale := replica.Record{Epoch: 0, Seq: 4, Op: wire.MsgDelete, Rect: all, Ref: 1}
	if err := ex.ApplyRecords(struct{}{}, []replica.Record{stale}); StatusOf(err) != wire.StatusFenced {
		t.Errorf("stale epoch: %v", err)
	}
	ex.Kill()
	if err := ex.ApplyRecords(struct{}{}, []replica.Record{rec(4)}); StatusOf(err) != wire.StatusUnavailable {
		t.Errorf("killed: %v", err)
	}
}

func TestWriteBatchKeepsSegmentsUnderLimit(t *testing.T) {
	ex, _ := newExec(t, 40)
	reqs := []wire.Request{{Type: wire.MsgSearch, ID: 1, Rect: all}, {Type: wire.MsgInsert, ID: 2, Rect: all}}
	res, _ := ex.DoBatch(struct{}{}, reqs, nil)
	const limit = 512
	got := map[uint64][]wire.Item{}
	final := map[uint64]bool{}
	containers := 0
	err := ex.WriteBatch(res, limit, func(b []byte) error {
		containers++
		if len(b) > limit {
			t.Errorf("container of %d B over the %d B limit", len(b), limit)
		}
		it, err := wire.DecodeBatch(b)
		if err != nil {
			return err
		}
		for msg, ok := it.Next(); ok; msg, ok = it.Next() {
			resp, err := wire.DecodeResponse(msg)
			if err != nil {
				return err
			}
			got[resp.ID] = append(got[resp.ID], resp.Items...)
			final[resp.ID] = final[resp.ID] || resp.Final
		}
		return it.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[1]) != 40 || !final[1] || !final[2] || containers < 2 {
		t.Errorf("%d items for the search, finals %v, %d containers", len(got[1]), final, containers)
	}
}
