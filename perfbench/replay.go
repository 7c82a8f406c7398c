package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/wire"
)

// The layer replay re-runs the traced phase's recorded inputs through the
// public rtree, wire and region functions in this process, on a local tree
// identical to the one served, and times each layer alone. Where a
// workload has none of an operation (kNN or MOVE on a read-only workload,
// chunk reads on a server-side one), it probes that operation at the
// recorded search windows instead, so every figure is the layer's unit
// cost on this workload's data rather than zero.

// replayCap bounds the inputs replayed per layer, keeping the replay's
// share of a run small.
const replayCap = 50_000

// probeRef tags the entries the MOVE probe inserts and removes again.
const probeRef = 1 << 62

type replayResult struct {
	searchNs, nodesPerSearch, itemsPerSearch float64
	knnNs, nodesPerKNN                       float64
	moveNs                                   float64
	encodeNs, decodeNs                       float64
	allocsPerEncode, allocsPerDecode         float64
	readChunkNs                              float64
}

// sink keeps the replayed calls' results alive.
var sink int

// replayTree times the recorded ops against tree, in each client's order.
// MOVEs mutate tree; the probes leave it as they found it.
func replayTree(tree *rtree.Tree, spans [][]opSpan, res *replayResult) error {
	var n, nodes, items [numKinds]int
	var ns [numKinds]time.Duration
	var windows []geo.Rect
	count := func(geo.Rect, uint64) bool { return true }
	for _, cs := range spans {
		for _, s := range cs {
			o := s.op
			if n[o.kind] >= replayCap {
				continue
			}
			t := time.Now()
			var st rtree.OpStats
			var err error
			switch o.kind {
			case opSearch:
				windows = append(windows, o.q)
				st, err = tree.Search(o.q, count)
			case opKNN:
				_, st, err = tree.Nearest(fleetKNN, o.q.MinX, o.q.MinY)
			case opMove:
				_, _, err = tree.Delete(o.q, o.ref)
				if err == nil {
					_, err = tree.Insert(o.to, o.ref)
				}
			}
			ns[o.kind] += time.Since(t)
			if err != nil {
				return fmt.Errorf("replay %v: %w", o.kind, err)
			}
			n[o.kind]++
			nodes[o.kind] += st.NodesRead
			items[o.kind] += st.Results
		}
	}
	if len(windows) == 0 {
		return fmt.Errorf("replay: no searches recorded")
	}
	if n[opKNN] == 0 {
		for _, q := range windows {
			t := time.Now()
			x, y := q.Center()
			_, st, err := tree.Nearest(fleetKNN, x, y)
			ns[opKNN] += time.Since(t)
			if err != nil {
				return fmt.Errorf("replay knn probe: %w", err)
			}
			n[opKNN]++
			nodes[opKNN] += st.NodesRead
		}
	}
	if n[opMove] == 0 {
		for i, q := range windows {
			r := geo.Rect{MinX: q.MinX, MinY: q.MinY, MaxX: q.MinX + maxInsertEdge, MaxY: q.MinY + maxInsertEdge}
			ref := uint64(probeRef + i)
			t := time.Now()
			_, err := tree.Insert(r, ref)
			if err == nil {
				_, _, err = tree.Delete(r, ref)
			}
			ns[opMove] += time.Since(t)
			if err != nil {
				return fmt.Errorf("replay move probe: %w", err)
			}
			n[opMove]++
		}
	}
	per := func(v float64, k opKind) float64 { return v / float64(n[k]) }
	res.searchNs = per(float64(ns[opSearch]), opSearch)
	res.nodesPerSearch = per(float64(nodes[opSearch]), opSearch)
	res.itemsPerSearch = per(float64(items[opSearch]), opSearch)
	res.knnNs = per(float64(ns[opKNN]), opKNN)
	res.nodesPerKNN = per(float64(nodes[opKNN]), opKNN)
	res.moveNs = per(float64(ns[opMove]), opMove)
	return nil
}

// replayWire re-encodes the sampled request frames and decodes the sampled
// reply frames, timing and counting allocations for each; it returns the
// chunk ids the sampled requests read.
func replayWire(up, down [][]byte, res *replayResult) ([]int, error) {
	var encs []func([]byte) []byte
	var chunks []int
	for _, raw := range up {
		typ, err := wire.PeekType(raw)
		if err != nil {
			return nil, err
		}
		switch typ {
		case wire.MsgSearch, wire.MsgInsert, wire.MsgDelete, wire.MsgMove,
			wire.MsgKNN, wire.MsgKNNFetch, wire.MsgSearchFetch:
			r, err := wire.DecodeRequest(raw)
			if err != nil {
				return nil, err
			}
			encs = append(encs, r.Encode)
		case wire.MsgReadChunk:
			r, err := wire.DecodeReadChunk(raw)
			if err != nil {
				return nil, err
			}
			encs = append(encs, r.Encode)
			chunks = append(chunks, int(r.Chunk))
		case wire.MsgReadSpan:
			r, err := wire.DecodeReadSpan(raw)
			if err != nil {
				return nil, err
			}
			encs = append(encs, r.Encode)
			for i := uint32(0); i < r.Count; i++ {
				chunks = append(chunks, int(r.Chunk+i))
			}
		case wire.MsgReadVersions:
			r, err := wire.DecodeReadVersions(raw)
			if err != nil {
				return nil, err
			}
			encs = append(encs, r.Encode)
		case wire.MsgReadMailbox:
			r, err := wire.DecodeReadMailbox(raw)
			if err != nil {
				return nil, err
			}
			encs = append(encs, r.Encode)
		case wire.MsgFetchAck:
			r, err := wire.DecodeFetchAck(raw)
			if err != nil {
				return nil, err
			}
			encs = append(encs, r.Encode)
		}
	}
	var replies [][]byte
	for _, raw := range down {
		if typ, err := wire.PeekType(raw); err == nil && typ != wire.MsgHeartbeat && typ != wire.MsgHello {
			replies = append(replies, raw)
		}
	}
	if len(encs) == 0 || len(replies) == 0 {
		return nil, fmt.Errorf("wire replay: %d requests and %d replies sampled", len(encs), len(replies))
	}

	buf := make([]byte, 0, 4096)
	m0 := mallocs()
	t := time.Now()
	for _, enc := range encs {
		buf = enc(buf[:0])
	}
	res.encodeNs = float64(time.Since(t)) / float64(len(encs))
	res.allocsPerEncode = float64(mallocs()-m0) / float64(len(encs))
	sink += len(buf)

	m0 = mallocs()
	t = time.Now()
	for _, raw := range replies {
		n, err := decodeReply(raw)
		if err != nil {
			return nil, err
		}
		sink += n
	}
	res.decodeNs = float64(time.Since(t)) / float64(len(replies))
	res.allocsPerDecode = float64(mallocs()-m0) / float64(len(replies))
	return chunks, nil
}

// decodeReply decodes one server-to-client frame with its wire decoder.
func decodeReply(raw []byte) (int, error) {
	typ, err := wire.PeekType(raw)
	if err != nil {
		return 0, err
	}
	switch typ {
	case wire.MsgResponse:
		r, err := wire.DecodeResponse(raw)
		return len(r.Items), err
	case wire.MsgChunkData:
		r, err := wire.DecodeChunkData(raw)
		return len(r.Raw), err
	case wire.MsgSpanData:
		r, err := wire.DecodeSpanData(raw)
		return len(r.Raw), err
	case wire.MsgVersionData:
		r, err := wire.DecodeVersionData(raw)
		return len(r.Versions), err
	case wire.MsgFetchDesc:
		r, err := wire.DecodeFetchDesc(raw)
		return int(r.Count), err
	case wire.MsgShardMapData:
		r, err := wire.DecodeShardMapData(raw)
		return len(r.Cells), err
	}
	return 0, fmt.Errorf("wire replay: unexpected reply type %d", typ)
}

// replayRegion times validated chunk reads of the given chunks on tree's
// region, or of its first allocated chunks when none were recorded.
func replayRegion(tree *rtree.Tree, chunks []int, res *replayResult) error {
	reg := tree.Region()
	if len(chunks) == 0 {
		for id := 0; id < min(reg.Allocated(), replayCap); id++ {
			chunks = append(chunks, id)
		}
	}
	chunks = chunks[:min(len(chunks), replayCap)]
	raw := make([]byte, reg.ChunkSize())
	payload := make([]byte, 0, reg.PayloadSize())
	t := time.Now()
	for _, id := range chunks {
		p, _, err := reg.ReadChunk(id, raw, payload)
		if err != nil {
			return fmt.Errorf("region replay chunk %d: %w", id, err)
		}
		sink += len(p)
	}
	res.readChunkNs = float64(time.Since(t)) / float64(len(chunks))
	return nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
