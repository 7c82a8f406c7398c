package main

import (
	"math"
	"sync"
	"time"

	catfish "github.com/catfish-db/catfish"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/rpcnet"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/wire"
)

// sampleEvery picks which read-only answers the correctness gate checks:
// every sampleEvery-th op of each client.
const sampleEvery = 32

// answer is a sampled search result, reduced to what the gate compares.
type answer struct {
	q     geo.Rect
	count int
	sum   uint64
}

// opSpan is one op as the traced phase records it: its request, its
// start and end in nanoseconds since the run's base time, and the router
// sub-queries it caused.
type opSpan struct {
	op         op
	start, end int64
	fanout     uint64
	skipped    uint64
}

// client is one closed-loop load generator. Its request stream and fleet
// state live across phases; the Conn it drives is per phase.
type client struct {
	gen   opGen
	fleet *fleetGen // nil on read-only workloads
	// acked is the last position the server acknowledged for each of the
	// client's fleet objects.
	acked []geo.Rect

	issued  int // ops over the client's lifetime; indexes answer sampling
	ops     int // ops in the current phase
	failed  int // failed ops in the current phase
	lat     [numKinds][]uint32
	samples []answer
	spans   []opSpan // traced phase only
}

func newClient(w *workloadDef, seed int64, c int) *client {
	cl := &client{gen: w.newGen(seed, c)}
	if fg, ok := cl.gen.(*fleetGen); ok {
		cl.fleet = fg
		cl.acked = make([]geo.Rect, fg.objs.Len())
		for i := range cl.acked {
			cl.acked[i] = fg.objs.Rect(i)
		}
	}
	for k := range cl.lat {
		cl.lat[k] = make([]uint32, 0, 1<<18)
	}
	cl.samples = make([]answer, 0, 1<<14)
	return cl
}

// mix64 is the splitmix64 finalizer; answer sums hash refs through it so
// that a missing item and a spurious one cannot cancel out.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func answerOf(q geo.Rect, items []wire.Item) answer {
	a := answer{q: q, count: len(items)}
	for _, it := range items {
		a.sum += mix64(it.Ref)
	}
	return a
}

// do issues one op and reports whether it succeeded.
func (c *client) do(conn catfish.Conn, o op) bool {
	switch o.kind {
	case opSearch:
		items, _, err := conn.Search(o.q)
		if err != nil {
			return false
		}
		if c.fleet == nil && c.issued%sampleEvery == 0 {
			c.samples = append(c.samples, answerOf(o.q, items))
		}
	case opKNN:
		if _, _, err := conn.Nearest(fleetKNN, o.q.MinX, o.q.MinY); err != nil {
			return false
		}
	case opMove:
		if err := conn.Move(o.q, o.to, o.ref); err != nil {
			return false
		}
		c.acked[o.ref-c.fleet.objs.Ref(0)] = o.to
	}
	return true
}

// run drives conn until deadline, recording each op's latency; with
// trace set it also records op spans against base.
func (c *client) run(conn catfish.Conn, deadline time.Time, trace bool, base time.Time) {
	router, _ := conn.(*rpcnet.Router)
	var before shard.RouterStats
	t := time.Now()
	for t.Before(deadline) {
		o := c.gen.next()
		if trace && router != nil {
			before = router.Stats()
		}
		ok := c.do(conn, o)
		end := time.Now()
		c.issued++
		c.ops++
		if !ok {
			c.failed++
		}
		c.lat[o.kind] = append(c.lat[o.kind], uint32(min(end.Sub(t), math.MaxUint32)))
		if trace {
			s := opSpan{op: o, start: int64(t.Sub(base)), end: int64(end.Sub(base))}
			if router != nil {
				after := router.Stats()
				s.fanout, s.skipped = after.Fanout-before.Fanout, after.Skipped-before.Skipped
			}
			c.spans = append(c.spans, s)
		}
		t = end
	}
}

// phase is the merged outcome of one timed run of every client.
type phase struct {
	elapsed time.Duration
	ops     int
	failed  int
	lat     [numKinds][]uint32
}

func (p *phase) all() []uint32 {
	var out []uint32
	for _, l := range p.lat {
		out = append(out, l...)
	}
	return out
}

// runPhase drives every client on its conn for dur and merges the results.
func runPhase(clients []*client, conns []catfish.Conn, dur time.Duration, trace bool, base time.Time) phase {
	for _, c := range clients {
		c.ops, c.failed = 0, 0
		for k := range c.lat {
			c.lat[k] = c.lat[k][:0]
		}
		c.spans = c.spans[:0]
	}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(conns[i], deadline, trace, base)
		}()
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	for _, c := range clients {
		p.ops += c.ops
		p.failed += c.failed
		for k := range p.lat {
			p.lat[k] = append(p.lat[k], c.lat[k]...)
		}
	}
	return p
}
