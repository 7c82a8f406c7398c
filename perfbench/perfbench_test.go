package main

import (
	"reflect"
	"testing"
)

func TestParseStat(t *testing.T) {
	// The command name holds a space and a parenthesis, as a process may
	// name itself; utime (field 14) is 150 ticks and stime (field 15) 37.
	const text = "4242 (perf (bench) x) S 1 4242 4242 0 -1 4194560 815 0 0 0 150 37 0 0 20 0 9 0 1234 5000000 900 18446744073709551615\n"
	got, err := parseStat(text)
	if err != nil {
		t.Fatal(err)
	}
	if want := (procCPU{user: 1_500_000, sys: 370_000}); got != want {
		t.Fatalf("parseStat = %+v, want %+v", got, want)
	}
	for _, bad := range []string{"", "4242 (x) S 1 2 3", "4242 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12"} {
		if _, err := parseStat(bad); err == nil {
			t.Errorf("parseStat(%q) accepted malformed text", bad)
		}
	}
}

func TestParseIO(t *testing.T) {
	const text = "rchar: 3980\nwchar: 120\nsyscr: 9\nsyscw: 2\nread_bytes: 0\nwrite_bytes: 0\ncancelled_write_bytes: 0\n"
	got, err := parseIO(text)
	if err != nil {
		t.Fatal(err)
	}
	if want := (procIO{syscr: 9, syscw: 2, rchar: 3980, wchar: 120}); got != want {
		t.Fatalf("parseIO = %+v, want %+v", got, want)
	}
	if _, err := parseIO("rchar: 1\nwchar: 2\nsyscr: 3\n"); err == nil {
		t.Error("parseIO accepted text without syscw")
	}
	if _, err := parseIO("rchar: x\nwchar: 2\nsyscr: 3\nsyscw: 4\n"); err == nil {
		t.Error("parseIO accepted a non-numeric value")
	}
}

func TestSummarize(t *testing.T) {
	ns := func(n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32((n - i) * 1000) // 1..n microseconds, reversed
		}
		return out
	}
	cases := []struct {
		n                int
		p50, p99, topPct float64
	}{
		{n: 1000, p50: 500, p99: 990, topPct: 99}, // p99.9 has 1 sample beyond it
		{n: 10_000, p50: 5000, p99: 9900, topPct: 99.9},
		{n: 20, p50: 10, p99: 20, topPct: 50}, // 10 samples beyond the median
		{n: 19, p50: 10, p99: 19, topPct: 0},  // 9 beyond: nothing supported
	}
	for _, c := range cases {
		s := summarize(ns(c.n))
		if s.n != c.n || s.p50 != c.p50 || s.p99 != c.p99 || s.topPct != c.topPct {
			t.Errorf("summarize(1..%d us) = %+v, want n %d p50 %v p99 %v top p%v", c.n, s, c.n, c.p50, c.p99, c.topPct)
		}
	}
	if s := summarize(nil); s.n != 0 || s.p99 != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

// stream returns the first n ops of client c's request stream.
func stream(w *workloadDef, seed int64, c, n int) []op {
	g := w.newGen(seed, c)
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if !reflect.DeepEqual(w.entries(7), w.entries(7)) {
				t.Error("same seed built different datasets")
			}
			if reflect.DeepEqual(w.entries(7), w.entries(8)) {
				t.Error("different seeds built the same dataset")
			}
			const n = 2000
			if !reflect.DeepEqual(stream(w, 7, 0, n), stream(w, 7, 0, n)) {
				t.Error("same seed generated different op streams")
			}
			if reflect.DeepEqual(stream(w, 7, 0, n), stream(w, 8, 0, n)) {
				t.Error("different seeds generated the same op stream")
			}
			if reflect.DeepEqual(stream(w, 7, 0, n), stream(w, 7, 1, n)) {
				t.Error("both clients generated the same op stream")
			}
		})
	}
}

func TestSelfTime(t *testing.T) {
	s := opSpan{start: 100, end: 200}
	rts := []roundTrip{
		{start: 90, end: 95},   // before the op: not its child
		{start: 110, end: 130}, // overlaps the next one
		{start: 120, end: 150},
		{start: 170, end: 0},   // no reply seen: runs to the op's end
		{start: 210, end: 220}, // after the op
	}
	kids := childSpans([]opSpan{s}, rts)[0]
	if len(kids) != 3 {
		t.Fatalf("got %d children, want 3", len(kids))
	}
	// Covered: [110,150] and [170,200] = 70 of 100.
	if got := selfNs(s, kids); got != 30 {
		t.Fatalf("selfNs = %d, want 30", got)
	}
}

func TestNthBest(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := nthBest(xs, 3, true); got != 3 {
		t.Errorf("third highest = %v, want 3", got)
	}
	if got := nthBest(xs, 2, false); got != 2 {
		t.Errorf("second lowest = %v, want 2", got)
	}
	if got := nthBest(xs[:2], 3, true); got != 1 {
		t.Errorf("third highest of two = %v, want the worse one, 1", got)
	}
	if xs[0] != 5 {
		t.Error("nthBest reordered its input")
	}
}
