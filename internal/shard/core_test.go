package shard

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// fakeRep is a scripted replica: every call is logged as "name.Op", and
// fail queues the errors successive calls of one op return (nil once the
// queue runs dry).
type fakeRep struct {
	name    string
	log     *[]string
	fail    map[string][]error
	dead    bool
	applied uint64
	util    float64
	items   []wire.Item
	nbrs    []rtree.Neighbor
	batch   []wire.BatchResult
}

func (f *fakeRep) call(op string) error {
	*f.log = append(*f.log, f.name+"."+op)
	q := f.fail[op]
	if len(q) == 0 {
		return nil
	}
	f.fail[op] = q[1:]
	return q[0]
}

func (f *fakeRep) Search(_ struct{}, q geo.Rect) ([]wire.Item, wire.Method, error) {
	if err := f.call("Search"); err != nil {
		return nil, wire.MethodFast, err
	}
	return f.items, wire.MethodFast, nil
}

func (f *fakeRep) Insert(_ struct{}, r geo.Rect, ref uint64) error { return f.call("Insert") }
func (f *fakeRep) Delete(_ struct{}, r geo.Rect, ref uint64) error { return f.call("Delete") }
func (f *fakeRep) Move(_ struct{}, from, to geo.Rect, ref uint64) error {
	return f.call("Move")
}

func (f *fakeRep) Nearest(_ struct{}, k int, x, y float64) ([]rtree.Neighbor, wire.Method, error) {
	if err := f.call("Nearest"); err != nil {
		return nil, wire.MethodFast, err
	}
	return f.nbrs, wire.MethodFast, nil
}

func (f *fakeRep) ExecBatch(_ struct{}, ops []wire.BatchOp, res []wire.BatchResult) []wire.BatchResult {
	f.call("ExecBatch")
	return append(res[:0], f.batch...)
}

func (f *fakeRep) Promote(_ struct{}, epoch uint64) error {
	return f.call("Promote")
}

func (f *fakeRep) Alive() bool                           { return !f.dead }
func (f *fakeRep) ReplicaState() (epoch, applied uint64) { return 0, f.applied }
func (f *fakeRep) PredictedUtil() float64                { return f.util }
func (f *fakeRep) Stats() telemetry.ClientSnapshot       { return telemetry.ClientSnapshot{} }

// fakeRuntime runs forks sequentially in slot order and records sleeps
// instead of taking them.
type fakeRuntime struct {
	sleeps    []time.Duration
	unhealthy map[int]bool
}

func (*fakeRuntime) Now(struct{}) time.Duration { return 0 }
func (rt *fakeRuntime) Sleep(_ struct{}, d time.Duration) {
	rt.sleeps = append(rt.sleeps, d)
}

func (*fakeRuntime) Fork(ctx struct{}, n int, fn func(struct{}, int)) {
	for slot := 0; slot < n; slot++ {
		fn(ctx, slot)
	}
}
func (rt *fakeRuntime) Healthy(s int, _ time.Duration) bool { return !rt.unhealthy[s] }
func (*fakeRuntime) Promoted(int, time.Duration)            {}

// stripMap tiles the plane into vertical strips split at xs.
func stripMap(xs ...float64) *Map {
	inf := math.Inf(1)
	lo := -inf
	m := &Map{}
	for _, x := range append(xs, inf) {
		m.Cells = append(m.Cells, geo.Rect{MinX: lo, MaxX: x, MinY: -inf, MaxY: inf})
		lo = x
	}
	m.finish()
	return m
}

// fakeDeploy builds a core over one replica list per shard; names[s] lists
// shard s's replicas, primary first.
func fakeDeploy(m *Map, readUtil float64, names ...[]string) (*Core[struct{}, *fakeRep], *fakeRuntime, map[string]*fakeRep, *[]string) {
	log := &[]string{}
	reps := map[string]*fakeRep{}
	cands := make([][]*fakeRep, len(names))
	epochs := make([]uint64, len(names))
	for s, ns := range names {
		for _, n := range ns {
			reps[n] = &fakeRep{name: n, log: log, fail: map[string][]error{}}
			cands[s] = append(cands[s], reps[n])
		}
		epochs[s] = 1
	}
	rt := &fakeRuntime{unhealthy: map[int]bool{}}
	return NewCore[struct{}, *fakeRep](rt, m, cands, epochs, readUtil), rt, reps, log
}

var (
	ms      = time.Millisecond
	leftPt  = geo.PointRect(0.25, 0.5)
	rightPt = geo.PointRect(0.75, 0.5)
)

func expectLog(t *testing.T, log *[]string, want ...string) {
	t.Helper()
	if !reflect.DeepEqual(*log, want) {
		t.Fatalf("calls = %v, want %v", *log, want)
	}
	*log = (*log)[:0]
}

func expectSleeps(t *testing.T, rt *fakeRuntime, want ...time.Duration) {
	t.Helper()
	if !reflect.DeepEqual(rt.sleeps, want) {
		t.Fatalf("sleeps = %v, want %v", rt.sleeps, want)
	}
	rt.sleeps = nil
}

func TestCoreSearchShedTriesReplicasThenBacksOff(t *testing.T) {
	c, rt, reps, log := fakeDeploy(Single(), 0, []string{"p", "dead", "b"})
	reps["dead"].dead = true
	shed := []error{wire.ErrOverloaded, wire.ErrOverloaded, wire.ErrOverloaded, wire.ErrOverloaded}
	reps["p"].fail["Search"] = shed
	reps["b"].fail["Search"] = []error{wire.ErrOverloaded}
	if _, _, err := c.Search(struct{}{}, leftPt); !errors.Is(err, wire.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	expectLog(t, log, "p.Search", "b.Search", "p.Search", "p.Search", "p.Search")
	expectSleeps(t, rt, 2*ms, 4*ms, 8*ms)

	// A live replica with headroom absorbs the shed read without back-off.
	reps["p"].fail["Search"] = []error{wire.ErrOverloaded}
	reps["b"].items = []wire.Item{{Ref: 7}}
	items, _, err := c.Search(struct{}{}, leftPt)
	if err != nil || len(items) != 1 || items[0].Ref != 7 {
		t.Fatalf("search = %v, %v", items, err)
	}
	expectLog(t, log, "p.Search", "b.Search")
	expectSleeps(t, rt)
	if st := c.Stats(); st.BackupReads != 1 || st.Promotions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCoreWriteAndKNNShedBackOffOnSameReplica(t *testing.T) {
	c, rt, reps, log := fakeDeploy(Single(), 0, []string{"p", "b"})
	reps["p"].fail["Insert"] = []error{wire.ErrOverloaded, wire.ErrOverloaded}
	if err := c.Insert(struct{}{}, leftPt, 1); err != nil {
		t.Fatal(err)
	}
	expectLog(t, log, "p.Insert", "p.Insert", "p.Insert")
	expectSleeps(t, rt, 2*ms, 4*ms)

	reps["p"].fail["Nearest"] = []error{wire.ErrOverloaded, wire.ErrOverloaded, wire.ErrOverloaded, wire.ErrOverloaded}
	if _, _, err := c.Nearest(struct{}{}, 1, 0.25, 0.5); !errors.Is(err, wire.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	expectLog(t, log, "p.Nearest", "p.Nearest", "p.Nearest", "p.Nearest")
	expectSleeps(t, rt, 2*ms, 4*ms, 8*ms)
}

func TestCoreClosedConnectionFailsOver(t *testing.T) {
	c, _, reps, log := fakeDeploy(Single(), 0, []string{"p", "b1", "b2"})
	reps["b1"].applied, reps["b2"].applied = 5, 9
	reps["p"].fail["Search"] = []error{wire.ErrClosed}
	if _, _, err := c.Search(struct{}{}, leftPt); err != nil {
		t.Fatal(err)
	}
	expectLog(t, log, "p.Search", "b1.Search")

	// The write promotes the most caught-up backup; one that fails its
	// promote round trip leaves the electorate.
	reps["p"].fail["Insert"] = []error{wire.ErrClosed}
	reps["b2"].fail["Promote"] = []error{replica.ErrUnavailable}
	if err := c.Insert(struct{}{}, leftPt, 1); err != nil {
		t.Fatal(err)
	}
	expectLog(t, log, "p.Insert", "b2.Promote", "b1.Promote", "b1.Insert")
	reps["b1"].dead = true
	reps["b1"].fail["Insert"] = []error{wire.ErrClosed}
	if err := c.Insert(struct{}{}, leftPt, 2); err != nil {
		t.Fatal(err)
	}
	expectLog(t, log, "b1.Insert", "b2.Promote", "b2.Insert")
	if c.Serving(0) != reps["b2"] || c.epochs[0] != 3 {
		t.Fatalf("serving %s at epoch %d, want b2 at 3", c.Serving(0).name, c.epochs[0])
	}
	if st := c.Stats(); st.Promotions != 2 || st.BackupReads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCoreReadReplicaUtilPicksLeastLoadedLiveReplica(t *testing.T) {
	c, _, reps, log := fakeDeploy(Single(), 0.5, []string{"p", "warm", "idleDead", "idle"})
	reps["p"].util, reps["warm"].util, reps["idleDead"].util, reps["idle"].util = 0.9, 0.7, 0.1, 0.3
	reps["idleDead"].dead = true
	if _, _, err := c.Search(struct{}{}, leftPt); err != nil {
		t.Fatal(err)
	}
	expectLog(t, log, "idle.Search")
	if c.Stats().BackupReads != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
	// Below the threshold the serving replica keeps its reads.
	reps["p"].util = 0.4
	if _, _, err := c.Search(struct{}{}, leftPt); err != nil {
		t.Fatal(err)
	}
	expectLog(t, log, "p.Search")
}

func TestCoreCrossOwnerMoveInsertsFirst(t *testing.T) {
	c, _, reps, log := fakeDeploy(stripMap(0.5), 0, []string{"left"}, []string{"right"})
	reps["left"].fail["Delete"] = []error{wire.ErrNotFound}
	if err := c.Move(struct{}{}, leftPt, rightPt, 1); err != nil {
		t.Fatalf("move of an absent source: %v", err)
	}
	expectLog(t, log, "right.Insert", "left.Delete")
	if err := c.Move(struct{}{}, leftPt, geo.PointRect(0.3, 0.3), 1); err != nil {
		t.Fatal(err)
	}
	expectLog(t, log, "left.Move")
	if st := c.Stats(); st.Moves != 2 || st.Writes != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCoreKNNGatherStopsAtCoverBound(t *testing.T) {
	c, _, reps, log := fakeDeploy(stripMap(0.3, 0.6), 0, []string{"s0"}, []string{"s1"}, []string{"s2"})
	near := rtree.Neighbor{Rect: geo.PointRect(0.2, 0.5), Ref: 1, DistSq: 0.01}
	reps["s0"].nbrs = []rtree.Neighbor{near}
	nbrs, _, err := c.Nearest(struct{}{}, 1, 0.1, 0.5)
	if err != nil || len(nbrs) != 1 || nbrs[0] != near {
		t.Fatalf("nearest = %v, %v", nbrs, err)
	}
	expectLog(t, log, "s0.Nearest")

	// With k unmet the gather walks on in bound order.
	if _, _, err := c.Nearest(struct{}{}, 2, 0.9, 0.5); err != nil {
		t.Fatal(err)
	}
	expectLog(t, log, "s2.Nearest", "s1.Nearest", "s0.Nearest")
	if st := c.Stats(); st.KNNs != 2 || st.Fanout != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCoreBatchRepairUsesSingleOpPaths(t *testing.T) {
	c, _, reps, log := fakeDeploy(stripMap(0.5), 0, []string{"l", "lb"}, []string{"r"})
	reps["l"].dead = true
	reps["l"].batch = []wire.BatchResult{{Err: replica.ErrUnavailable}}
	reps["l"].fail["Insert"] = []error{replica.ErrUnavailable}
	reps["r"].batch = []wire.BatchResult{{Err: wire.ErrOverloaded}}
	reps["r"].items = []wire.Item{{Ref: 9}}
	ops := []wire.BatchOp{
		{Type: wire.MsgInsert, Rect: leftPt, Ref: 1},
		{Type: wire.MsgSearch, Rect: rightPt},
	}
	res := c.ExecBatch(struct{}{}, ops, nil)
	expectLog(t, log, "l.ExecBatch", "r.ExecBatch",
		"l.Insert", "lb.Promote", "lb.Insert", "r.Search")
	if res[0].Err != nil || res[1].Err != nil || len(res[1].Items) != 1 || res[1].Items[0].Ref != 9 {
		t.Fatalf("results = %+v", res)
	}
	if c.Serving(0) != reps["lb"] {
		t.Fatalf("shard 0 served by %s, want lb", c.Serving(0).name)
	}
}
