package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/catfish-db/catfish/internal/rtree"
)

const (
	// tracedWarmup refills node caches on the traced phase's fresh
	// connections before its window opens.
	tracedWarmup = 500 * time.Millisecond
	// spansPerClient bounds the op spans written out per client.
	spansPerClient = 1000
)

// traced is the traced phase's outcome.
type traced struct {
	phase
	counts traceCounts
	spans  [][]opSpan
	replay replayResult
}

// runTraced repeats the window through the observe-only proxy, recording
// op spans and round trips, then replays the recorded inputs layer by
// layer. ref is the local copy of a read-only workload's tree.
func runTraced(cfg config, ch *child, clients []*client, ref *rtree.Tree, dur time.Duration, base time.Time) (*traced, error) {
	px, err := startProxy(base, ch.addrs)
	if err != nil {
		return nil, err
	}
	dep, err := connect(cfg.w, px.addrs())
	if err != nil {
		px.close()
		return nil, err
	}
	runPhase(clients, dep.conns, tracedWarmup, false, base)
	if ref == nil {
		// The fleet moved during the earlier phases: replay from the
		// state the traced window starts at.
		if ref, err = buildTree(fleetState(cfg.seed, clients)); err != nil {
			dep.close()
			px.close()
			return nil, err
		}
	}
	px.sampling.Store(true)
	from := int64(time.Since(base))
	ph := runPhase(clients, dep.conns, dur, true, base)
	to := int64(time.Since(base))
	dep.close()
	px.close()

	tr := &traced{phase: ph}
	for _, c := range clients {
		tr.spans = append(tr.spans, slices.Clone(c.spans))
	}
	if tr.counts, err = px.analyze(from, to); err != nil {
		return nil, err
	}
	var up, down [][]byte
	for _, pc := range px.conns {
		up = append(up, pc.up.raw...)
		down = append(down, pc.down.raw...)
	}
	if err := replayTree(ref, tr.spans, &tr.replay); err != nil {
		return nil, err
	}
	chunks, err := replayWire(up, down, &tr.replay)
	if err != nil {
		return nil, err
	}
	if err := replayRegion(ref, chunks, &tr.replay); err != nil {
		return nil, err
	}
	if cfg.spansDir != "" {
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.w.name, cfg.seed))
		if err := writeSpans(path, tr); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// childSpans returns, per op of one client, the round trips it caused:
// those of the same client whose request left during the op.
func childSpans(spans []opSpan, rts []roundTrip) [][]roundTrip {
	out := make([][]roundTrip, len(spans))
	j := 0
	for i, s := range spans {
		for j < len(rts) && rts[j].start < s.start {
			j++
		}
		for j < len(rts) && rts[j].start <= s.end {
			rt := rts[j]
			if rt.end == 0 || rt.end > s.end {
				rt.end = s.end
			}
			out[i] = append(out[i], rt)
			j++
		}
	}
	return out
}

// selfNs is the part of an op's span its round trips do not cover.
func selfNs(s opSpan, children []roundTrip) int64 {
	covered, reach := int64(0), s.start
	for _, rt := range children { // sorted by start
		if rt.end > reach {
			covered += rt.end - max(rt.start, reach)
			reach = rt.end
		}
	}
	return s.end - s.start - covered
}

// clientRTs splits the round trips by client, each sorted by start.
func clientRTs(rts []roundTrip) [][]roundTrip {
	out := make([][]roundTrip, numClients)
	for _, rt := range rts {
		out[rt.client] = append(out[rt.client], rt)
	}
	for _, r := range out {
		slices.SortFunc(r, func(a, b roundTrip) int { return int(a.start - b.start) })
	}
	return out
}

// writeSpans writes the first spansPerClient op spans of each client, with
// their round-trip children, as JSON lines.
func writeSpans(path string, tr *traced) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type child struct {
		Start int64 `json:"start_ns"`
		End   int64 `json:"end_ns"`
	}
	type span struct {
		Client   int     `json:"client"`
		Op       int     `json:"op"`
		Kind     string  `json:"kind"`
		Start    int64   `json:"start_ns"`
		End      int64   `json:"end_ns"`
		SelfNs   int64   `json:"self_ns"`
		Children []child `json:"round_trips"`
	}
	byClient := clientRTs(tr.counts.rts)
	for c, spans := range tr.spans {
		spans = spans[:min(len(spans), spansPerClient)]
		kids := childSpans(spans, byClient[c])
		for i, s := range spans {
			out := span{Client: c, Op: i, Kind: s.op.kind.String(), Start: s.start, End: s.end, SelfNs: selfNs(s, kids[i])}
			for _, rt := range kids[i] {
				out.Children = append(out.Children, child{Start: rt.start, End: rt.end})
			}
			if err := enc.Encode(out); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer reports the per-layer table: transport, allocation and
// counter figures from the untraced window w, round trips and self times
// from the traced window, and unit costs from the layer replay.
func perLayer(res *result, w window, tr *traced, tcpConns int) {
	tops := float64(tr.ops)
	srv := w.srv
	nreq := srv.Searches + srv.Inserts + srv.Deletes + srv.Moves + srv.KNNs + srv.FetchSearches +
		srv.ChunkReads + srv.VersionReads + srv.SpanReads + srv.MailboxReads

	var residence, self []uint32
	byClient := clientRTs(tr.counts.rts)
	for _, rt := range tr.counts.rts {
		if rt.end > 0 {
			residence = append(residence, uint32(min(rt.end-rt.start, math.MaxUint32)))
		}
	}
	var searches, fanout, skipped float64
	for c, spans := range tr.spans {
		kids := childSpans(spans, byClient[c])
		for i, s := range spans {
			self = append(self, uint32(min(max(selfNs(s, kids[i]), 0), math.MaxUint32)))
			if s.op.kind == opSearch {
				searches++
				fanout += float64(s.fanout)
				skipped += float64(s.skipped)
			}
		}
	}
	res_ := summarize(residence)
	self_ := summarize(self)
	rp := tr.replay
	moves := float64(len(w.lat[opMove]))
	cache := w.conn.CacheHits + w.conn.CacheVerifiedHits
	fetches := float64(w.conn.FetchSearches)

	res.add("rpcnet.server_read_syscalls_per_op", "1/op", w.perOp(float64(w.srvIO.syscr)))
	res.add("rpcnet.server_write_syscalls_per_op", "1/op", w.perOp(float64(w.srvIO.syscw)))
	res.add("rpcnet.client_read_syscalls_per_op", "1/op", w.perOp(float64(w.cliIO.syscr)))
	res.add("rpcnet.client_write_syscalls_per_op", "1/op", w.perOp(float64(w.cliIO.syscw)))
	res.add("rpcnet.server_bytes_in_per_op", "B/op", w.perOp(float64(w.srvIO.rchar)))
	res.add("rpcnet.server_bytes_out_per_op", "B/op", w.perOp(float64(w.srvIO.wchar)))
	res.add("rpcnet.server_sys_cpu_us_per_op", "us/op", w.perOp(w.srvCPU.sys))
	res.add("rpcnet.server_user_cpu_us_per_op", "us/op", w.perOp(w.srvCPU.user))
	res.add("rpcnet.server_requests_per_op", "1/op", w.perOp(float64(nreq)))
	res.add("rpcnet.overloaded_per_op", "1/op", w.perOp(float64(srv.Overloaded)))
	res.add("rpcnet.server_allocs_per_op", "1/op", w.perOp(float64(w.srvMallocs)))
	res.add("rpcnet.server_alloc_bytes_per_op", "B/op", w.perOp(float64(w.srvAllocBytes)))
	res.add("rpcnet.client_allocs_per_op", "1/op", w.perOp(float64(w.cliMallocs)))
	res.add("rpcnet.round_trips_per_op", "1/op", ratio(float64(tr.counts.roundTrips), tops))
	res.add("rpcnet.frames_out_per_op", "1/op", ratio(float64(tr.counts.framesOut), tops))
	res.add("rpcnet.server_residence_us_p50", "us", res_.p50)
	res.add("rpcnet.server_residence_us_p99", "us", res_.p99)
	res.add("rpcnet.client_self_us_p50", "us", self_.p50)
	res.add("rtree.search_ns_per_op", "ns", rp.searchNs)
	res.add("rtree.nodes_per_search", "count", rp.nodesPerSearch)
	res.add("rtree.items_per_search", "count", rp.itemsPerSearch)
	res.add("rtree.knn_ns_per_op", "ns", rp.knnNs)
	res.add("rtree.nodes_per_knn", "count", rp.nodesPerKNN)
	res.add("rtree.move_ns_per_op", "ns", rp.moveNs)
	res.add("wire.request_encode_ns", "ns", rp.encodeNs)
	res.add("wire.response_decode_ns", "ns", rp.decodeNs)
	res.add("wire.allocs_per_op", "1/op", rp.allocsPerEncode*ratio(float64(tr.counts.roundTrips), tops)+
		rp.allocsPerDecode*ratio(float64(tr.counts.framesOut), tops))
	res.add("region.chunks_read_per_op", "1/op", w.perOp(float64(srv.ChunkReads+srv.SpanChunks)))
	res.add("region.version_reads_per_op", "1/op", w.perOp(float64(srv.VersionReads)))
	res.add("region.read_chunk_ns", "ns", rp.readChunkNs)
	res.add("client.read_wqes_per_op", "1/op", w.perOp(float64(w.conn.ReadWQEs)))
	res.add("client.torn_retries_per_op", "1/op", w.perOp(float64(w.conn.TornRetries)))
	res.add("client.stale_restarts_per_op", "1/op", w.perOp(float64(w.conn.StaleRestarts)))
	res.add("nodecache.hit_ratio", "ratio", ratio(float64(cache), float64(cache+w.conn.CacheMisses)))
	res.add("nodecache.bytes_saved_per_op", "B/op", w.perOp(float64(w.conn.CacheBytesSaved)))
	res.add("fetch.inline_ratio", "ratio", ratio(float64(w.conn.FetchInline), fetches))
	res.add("fetch.pulls_per_fetch", "count", ratio(float64(w.conn.FetchPulls), fetches))
	res.add("fetch.bytes_per_fetch", "B", ratio(float64(w.conn.FetchBytes), fetches))
	res.add("fetch.retries_per_fetch", "count", ratio(float64(w.conn.FetchRetries), fetches))
	res.add("fetch.fallbacks_per_fetch", "count", ratio(float64(w.conn.FetchFallbacks), fetches))
	res.add("router.fanout_per_search", "count", ratio(fanout, searches))
	res.add("router.skipped_per_search", "count", ratio(skipped, searches))
	res.add("router.cross_shard_move_share", "ratio", ratio(float64(w.router.Writes)-moves, moves))
	res.add("mux.tcp_conns", "count", float64(tcpConns))
	all := summarize(w.all())
	res.add("p99_us", "us", all.p99)
	res.add("p999_us", "us", all.p999)

	untraced := float64(w.ops) / w.elapsed.Seconds()
	tracedRate := tops / tr.elapsed.Seconds()
	res.note("tracing overhead: %.0f ops/s untraced, %.0f ops/s traced (%.1f%% lost)",
		untraced, tracedRate, 100*ratio(untraced-tracedRate, untraced))
	res.note("traced window: %d ops, %d round trips, %d server frames; residence from %d samples (p%g supported), self time from %d",
		tr.ops, tr.counts.roundTrips, tr.counts.framesOut, res_.n, res_.topPct, self_.n)
	res.note("p99_us %.1f and p999_us %.1f over the untraced half, from %d samples (tail supported to p%g)", all.p99, all.p999, all.n, all.topPct)
}
