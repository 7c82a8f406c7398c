package rpcnet

import (
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// serveEntries starts a server over a tree bulk-loaded with n point
// entries inside [0, 0.5]² and n more inside [0.6, 1]².
func serveEntries(t *testing.T, n int, cfg ServerConfig) *Server {
	t.Helper()
	reg, err := region.New(1<<12, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := rtree.New(reg, rtree.Config{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	var ents []rtree.Entry
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n)
		ents = append(ents,
			rtree.Entry{Rect: geo.Rect{MinX: 0.5 * f, MaxX: 0.5 * f, MinY: 0.5 - 0.5*f, MaxY: 0.5 - 0.5*f}, Ref: uint64(i)},
			rtree.Entry{Rect: geo.Rect{MinX: 0.6 + 0.4*f, MaxX: 0.6 + 0.4*f, MinY: 0.6, MaxY: 0.6}, Ref: uint64(n + i)})
	}
	if err := tree.BulkLoad(ents, 0); err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck // returns on Close
	t.Cleanup(func() { srv.Close() })
	return srv
}

// lowerHalf covers exactly the first n entries serveEntries loads.
var lowerHalf = geo.Rect{MinX: 0, MinY: 0, MaxX: 0.5, MaxY: 0.5}

// A fetch answer whose packed items fill a mailbox slot exactly goes
// through the mailbox: Capacity already excludes the slot header. Four
// 4 KB chunks carry 4×3584 payload bytes, less the 16-byte header that is
// 358 items of 40 bytes.
func TestFetchExactSlotCapacityOverTCP(t *testing.T) {
	const slotChunks, n = 4, 358
	srv := serveEntries(t, n, ServerConfig{FetchSlots: 2, FetchSlotChunks: slotChunks, FetchInlineMax: 4})
	if got := srv.mailbox.Capacity(); got != n*wire.ItemSize {
		t.Fatalf("slot capacity %d B, want %d items × %d B", got, n, wire.ItemSize)
	}
	c := dial(t, srv, ClientConfig{Forced: MethodFetch, Fetch: true})
	items, m, err := c.Search(lowerHalf)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != n || m != MethodFetch {
		t.Fatalf("got %d items via %v, want %d via fetch", len(items), m, n)
	}
	st := srv.Stats()
	if st.FetchInline != 0 || st.FetchBytes != n*wire.ItemSize {
		t.Errorf("full-slot result: inline=%d fetchBytes=%d, want mailbox delivery of %d B",
			st.FetchInline, st.FetchBytes, n*wire.ItemSize)
	}
}

// The server-side trace names the path that executed: "fetch" only when
// the answer went to a mailbox slot, "fast" for every inline answer, with
// kNN and kNN-fetch covered like searches.
func TestServerTraceLabelsExecutedPath(t *testing.T) {
	tracer := telemetry.NewTracer(64, 1)
	srv := serveEntries(t, 100, ServerConfig{FetchSlots: 4, FetchInlineMax: 4, Trace: tracer})
	fast := dial(t, srv, ClientConfig{Forced: MethodFast})
	fetch := dial(t, srv, ClientConfig{Forced: MethodFetch, Fetch: true})
	small := geo.Rect{MinX: 0, MinY: 0.49, MaxX: 0.02, MaxY: 0.5}

	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"search", func() error { _, _, err := fast.Search(lowerHalf); return err }, "fast"},
		{"fetch-delivered", func() error { _, _, err := fetch.Search(lowerHalf); return err }, "fetch"},
		{"fetch-inline", func() error { _, _, err := fetch.Search(small); return err }, "fast"},
		{"knn", func() error { _, _, err := fast.Nearest(10, 0.25, 0.25); return err }, "fast"},
		{"knn-fetch", func() error { _, _, err := fetch.Nearest(10, 0.25, 0.25); return err }, "fetch"},
	}
	for _, tc := range cases {
		before := tracer.Total()
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := tracer.Total() - before; got != 1 {
			t.Errorf("%s: %d server traces, want 1", tc.name, got)
			continue
		}
		traces := tracer.Dump()
		if tr := traces[len(traces)-1]; tr.Method != tc.want || tr.Err != "" {
			t.Errorf("%s: traced method %q err %q, want %q", tc.name, tr.Method, tr.Err, tc.want)
		}
	}
}
