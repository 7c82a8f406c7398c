package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"time"

	catfish "github.com/catfish-db/catfish"
	"github.com/catfish-db/catfish/internal/rpcnet"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/telemetry"
)

const (
	// setupRuns is how many times a run stands the deployment up; setup_s
	// is their median, and the last one serves the run.
	setupRuns = 5
	// warmup lets node caches fill and connections settle before timing.
	warmup = time.Second
	// sliceLen is the length of the slices a timed window is cut into;
	// a window has at least minSlices.
	sliceLen  = time.Second
	minSlices = 10
	// bestRank picks which slice each end-to-end figure is read from:
	// the third best. Other tenants of a shared machine only ever slow a
	// slice down (on a shared two-vCPU machine they slowed runs by up to
	// four times for tens of seconds), so the better slices track the
	// code's own cost; taking the third rather than the best keeps one
	// lucky slice from setting the figure.
	bestRank = 3
)

// deployment is the clients' view of the servers: one Conn per client,
// plus the pool they share on a pooled workload.
type deployment struct {
	conns []catfish.Conn
	pool  *catfish.MuxPool
}

// connect opens one Conn per client, one client after another; the traced
// phase's round-trip attribution relies on that order.
func connect(w *workloadDef, addrs []string) (*deployment, error) {
	d := &deployment{}
	opts := slices.Clip(w.options)
	if w.fleet {
		d.pool = catfish.NewMuxPool(1)
		opts = append(opts, catfish.WithMuxPool(d.pool))
	}
	for c := 0; c < numClients; c++ {
		conn, err := catfish.Connect(addrs, append(opts, catfish.WithSeed(int64(c)))...)
		if err != nil {
			d.close()
			return nil, err
		}
		d.conns = append(d.conns, conn)
	}
	return d, nil
}

func (d *deployment) close() {
	for _, c := range d.conns {
		c.Close()
	}
	if d.pool != nil {
		d.pool.Close()
	}
}

// tcpConns is the number of TCP connections the clients hold: one each
// unless they share a pool.
func (d *deployment) tcpConns() int {
	if d.pool != nil {
		return d.pool.Conns()
	}
	return len(d.conns)
}

// counters is one reading of every counter the benchmark watches.
type counters struct {
	srv, cli   procSample
	child      childStats
	cliMallocs uint64
	conn       telemetry.ClientSnapshot
	router     shard.RouterStats
}

func (d *deployment) sample(ch *child) (counters, error) {
	var c counters
	var err error
	if c.child, err = ch.request("stats"); err != nil {
		return c, err
	}
	if c.srv, err = readProc(ch.pid()); err != nil {
		return c, err
	}
	if c.cli, err = readProc(os.Getpid()); err != nil {
		return c, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.cliMallocs = ms.Mallocs
	for _, conn := range d.conns {
		c.conn = c.conn.Add(conn.Snapshot())
		if r, ok := conn.(*rpcnet.Router); ok {
			c.router = sumU64([]shard.RouterStats{c.router, r.Stats()})
		}
	}
	return c, nil
}

// sumU64 adds structs of uint64 counters field by field.
func sumU64[T any](xs []T) T {
	var out T
	vo := reflect.ValueOf(&out).Elem()
	for _, x := range xs {
		vx := reflect.ValueOf(x)
		for i := 0; i < vo.NumField(); i++ {
			if f := vo.Field(i); f.Kind() == reflect.Uint64 {
				f.SetUint(f.Uint() + vx.Field(i).Uint())
			}
		}
	}
	return out
}

// subU64 returns b - a field by field for structs of uint64 counters.
func subU64[T any](a, b T) T {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(&b).Elem()
	for i := 0; i < vb.NumField(); i++ {
		if f := vb.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(f.Uint() - va.Field(i).Uint())
		}
	}
	return b
}

// window is the change of every counter over one timed phase.
type window struct {
	phase
	srvCPU, cliCPU procCPU
	srvIO, cliIO   procIO
	srv            rpcnet.ServerStats
	srvMallocs     uint64
	srvAllocBytes  uint64
	cliMallocs     uint64
	conn           telemetry.ClientSnapshot
	router         shard.RouterStats
}

func newWindow(p phase, a, b counters) window {
	return window{
		phase:         p,
		srvCPU:        b.srv.cpu.sub(a.srv.cpu),
		cliCPU:        b.cli.cpu.sub(a.cli.cpu),
		srvIO:         b.srv.io.sub(a.srv.io),
		cliIO:         b.cli.io.sub(a.cli.io),
		srv:           subU64(sumU64(a.child.Servers), sumU64(b.child.Servers)),
		srvMallocs:    b.child.Mallocs - a.child.Mallocs,
		srvAllocBytes: b.child.TotalAlloc - a.child.TotalAlloc,
		cliMallocs:    b.cliMallocs - a.cliMallocs,
		conn:          subU64(a.conn, b.conn),
		router:        subU64(a.router, b.router),
	}
}

// perOp divides by the window's op count.
func (w window) perOp(v float64) float64 { return ratio(v, float64(w.ops)) }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	notes             []string // human-readable lines printed before the result
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// config is one invocation of the benchmark.
type config struct {
	w        *workloadDef
	seed     int64
	seconds  int
	trace    bool
	spansDir string
}

// setUp stands the deployment up setupRuns times and keeps the last.
func setUp(w *workloadDef, seed int64, cpus string) (*child, *deployment, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t := time.Now()
		ch, err := startChild(w, seed, cpus)
		if err != nil {
			return nil, nil, nil, err
		}
		dep, err := connect(w, ch.addrs)
		if err != nil {
			ch.stop()
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t).Seconds())
		if i == setupRuns-1 {
			return ch, dep, times, nil
		}
		dep.close()
		if err := ch.stop(); err != nil {
			return nil, nil, nil, err
		}
	}
}

// nthBest returns the n-th best of xs: the n-th highest when higher is
// better, else the n-th lowest.
func nthBest(xs []float64, n int, higher bool) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if higher {
		slices.Reverse(s)
	}
	return s[min(n, len(s))-1]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runBench runs one workload end to end: set-up, warm-up, the timed
// window (split into an untraced and a traced half when tracing), the
// correctness gate and the executed-path guard.
func runBench(cfg config) (*result, error) {
	w := cfg.w
	base := time.Now()
	srvCPUs, genCPUs, err := splitCPUs()
	if err != nil {
		return nil, err
	}
	if err := pin(genCPUs); err != nil {
		return nil, err
	}
	ch, dep, setups, err := setUp(w, cfg.seed, cpuList(srvCPUs))
	if err != nil {
		return nil, err
	}
	defer ch.stop()
	defer dep.close()
	res := &result{correct: true}

	clients := make([]*client, numClients)
	for c := range clients {
		clients[c] = newClient(w, cfg.seed, c)
	}
	var ref *rtree.Tree
	if !w.fleet {
		if ref, err = buildTree(w.entries(cfg.seed)); err != nil {
			return nil, err
		}
	}

	runPhase(clients, dep.conns, warmup, false, base)
	dur := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		dur /= 2
	}
	win, subs, err := measure(ch, dep, clients, dur)
	if err != nil {
		return nil, err
	}
	ph := win.phase
	res.attempted, res.failed = ph.ops, ph.failed
	if err := guard(w.name, win); err != nil {
		res.correct = false
		res.note("path guard: %v", err)
	}

	if cfg.trace {
		tr, err := runTraced(cfg, ch, clients, ref, dur, base)
		if err != nil {
			return nil, err
		}
		res.attempted += tr.ops
		res.failed += tr.failed
		perLayer(res, win, tr, dep.tcpConns())
	} else {
		heap, err := ch.request("gc")
		if err != nil {
			return nil, err
		}
		endToEnd(res, win, subs, median(setups), heap.HeapAlloc)
	}

	var checked, wrong int
	if w.fleet {
		checked, wrong, err = checkFleet(dep.conns[0], cfg.seed, clients)
	} else {
		checked, wrong, err = checkSamples(ref, clients)
	}
	if err != nil {
		return nil, err
	}
	res.attempted += checked
	res.failed += wrong
	res.note("correctness gate: %d answers checked, %d wrong", checked, wrong)
	if res.failed > 0 {
		res.correct = false
	}
	res.note("error_rate %.6g (%d failed, shed or wrong of %d attempted)",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	return res, nil
}

// measure runs the timed window as consecutive slices and returns the
// whole window and each slice.
func measure(ch *child, dep *deployment, clients []*client, dur time.Duration) (window, []window, error) {
	n := max(minSlices, int(dur/sliceLen))
	first, err := dep.sample(ch)
	if err != nil {
		return window{}, nil, err
	}
	a := first
	var all phase
	var subs []window
	for i := 0; i < n; i++ {
		ph := runPhase(clients, dep.conns, dur/time.Duration(n), false, time.Time{})
		b, err := dep.sample(ch)
		if err != nil {
			return window{}, nil, err
		}
		subs = append(subs, newWindow(ph, a, b))
		a = b
		all.elapsed += ph.elapsed
		all.ops += ph.ops
		all.failed += ph.failed
		for k := range all.lat {
			all.lat[k] = append(all.lat[k], ph.lat[k]...)
		}
	}
	return newWindow(all, first, a), subs, nil
}

// endToEnd reports what a user of the deployment sees: each rate,
// latency and CPU cost is read from its bestRank-th best slice.
func endToEnd(res *result, w window, subs []window, setup float64, heap uint64) {
	names := [...]string{"ops_per_s", "p50_us", "p99_us", "server_cpu_us_per_op", "client_cpu_us_per_op"}
	var per [len(names)][]float64
	for _, s := range subs {
		all := summarize(s.all())
		for i, v := range [...]float64{
			float64(s.ops) / s.elapsed.Seconds(),
			all.p50,
			all.p99,
			s.perOp(s.srvCPU.user + s.srvCPU.sys),
			s.perOp(s.cliCPU.user + s.cliCPU.sys),
		} {
			per[i] = append(per[i], v)
		}
	}
	for i, name := range names {
		res.note("%s per slice: %.6g", name, per[i])
	}
	res.add("ops_per_s", "1/s", nthBest(per[0], bestRank, true))
	res.add("p50_us", "us", nthBest(per[1], bestRank, false))
	res.add("server_cpu_us_per_op", "us", nthBest(per[3], bestRank, false))
	res.add("client_cpu_us_per_op", "us", nthBest(per[4], bestRank, false))
	res.note("p99_us %.6g (third-best slice; a per-layer diagnostic, see README)", nthBest(per[2], bestRank, false))
	res.add("server_mem_mb", "MB", float64(heap)/1e6)
	res.add("setup_s", "s", setup)

	all := summarize(w.all())
	res.note("latency over the whole window: %d ops, p50 %.1f us, p99 %.1f us, p999 %.1f us; tail supported to p%g = %.1f us",
		all.n, all.p50, all.p99, all.p999, all.topPct, all.top)
	for k := opSearch; k < numKinds; k++ {
		if s := summarize(w.lat[k]); s.n > 0 {
			res.note("%s_p99_us %.1f over the whole window (%d samples; tail supported to p%g)", k, s.p99, s.n, s.topPct)
		}
	}
}
