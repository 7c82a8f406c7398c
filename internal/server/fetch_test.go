package server

import (
	"testing"

	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/wire"
)

// A fetch answer whose packed items fill a mailbox slot exactly goes
// through the mailbox: Capacity already excludes the slot header. Four
// 4 KB chunks carry 4×3584 payload bytes, less the 16-byte header that is
// 358 items of 40 bytes.
func TestFetchExactSlotCapacity(t *testing.T) {
	const slotChunks, n = 4, 358
	e := sim.New(1)
	net := fabric.NewNetwork(e, netmodel.InfiniBand100G)
	serverHost := net.NewHost("server", sim.NewCPU(e, 4))
	clientHost := net.NewHost("client", sim.NewCPU(e, 4))
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
		f := float64(i) / n
		ents = append(ents,
			rtree.Entry{Rect: geo.Rect{MinX: 0.5 * f, MaxX: 0.5 * f, MinY: 0.5 * f, MaxY: 0.5 * f}, Ref: uint64(i)},
			rtree.Entry{Rect: geo.Rect{MinX: 0.6 + 0.4*f, MaxX: 0.6 + 0.4*f, MinY: 0.7, MaxY: 0.7}, Ref: uint64(n + i)})
	}
	if err := tree.BulkLoad(ents, 0); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Engine: e, Host: serverHost, Tree: tree, Cost: netmodel.DefaultCostModel(),
		FetchSlots: 2, FetchSlotChunks: slotChunks, FetchInlineMax: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Mailbox().Capacity(); got != n*wire.ItemSize {
		t.Fatalf("slot capacity %d B, want %d items × %d B", got, n, wire.ItemSize)
	}
	ep, err := srv.Connect(clientHost, net, 4)
	if err != nil {
		t.Fatal(err)
	}

	var reply []byte
	e.Spawn("driver", func(p *sim.Proc) {
		defer e.Stop()
		req := wire.Request{Type: wire.MsgSearchFetch, ID: 9, Rect: geo.Rect{MaxX: 0.5, MaxY: 0.5}}
		if err := ep.ReqWriter.Send(p, req.Encode(nil), 9, true); err != nil {
			t.Error(err)
			return
		}
		for reply == nil {
			ep.RespReader.CQ().Pop(p)
			payload, err, ok := ep.RespReader.TryRecv()
			if err != nil {
				t.Error(err)
				return
			}
			if ok {
				reply = append([]byte(nil), payload...)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	desc, err := wire.DecodeFetchDesc(reply)
	if err != nil {
		t.Fatalf("full-slot result not mailbox-delivered: %v", err)
	}
	if desc.Count != n || desc.Bytes != n*wire.ItemSize {
		t.Errorf("descriptor count %d bytes %d, want %d items in %d B", desc.Count, desc.Bytes, n, n*wire.ItemSize)
	}
	if st := srv.Stats(); st.FetchInline != 0 || st.FetchBytes != n*wire.ItemSize {
		t.Errorf("inline=%d fetchBytes=%d, want mailbox delivery", st.FetchInline, st.FetchBytes)
	}
}
