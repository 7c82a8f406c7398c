// Package server implements the Catfish R-tree server.
//
// The server owns the R*-tree (stored in the RDMA-registered region) and
// serves three kinds of traffic:
//
//   - fast-messaging requests arriving in per-connection ring buffers via
//     RDMA Write, processed by a worker thread per connection and answered
//     with RDMA Writes into the client's response ring (§III-A);
//   - one-sided RDMA Reads against the region, which bypass the server CPU
//     entirely (§III-B) — the server's only involvement is publishing node
//     writes with bumped cacheline versions;
//   - kernel-TCP requests for the socket baselines (§V).
//
// Worker threads run in one of two notification modes (§IV-B): event-based
// (block on the completion-queue event channel, yielding the CPU — modelled
// by a processor-sharing CPU) or polling-based (burn cycles watching the
// ring — modelled by a round-robin polling CPU whose idle threads tax their
// core-mates). A heartbeat process publishes the server's windowed CPU
// utilization to every client's heartbeat mailbox each interval (§IV-A).
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"github.com/catfish-db/catfish/internal/exec"
	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/ringbuf"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// Mode selects the worker notification mechanism.
type Mode int

// Server modes.
const (
	// ModeEvent is event-based fast messaging: workers block on the CQ
	// event channel and the CPU is work-conserving.
	ModeEvent Mode = iota + 1
	// ModePolling is the FaRM-baseline polling design: workers busy-poll
	// their rings, paying the oversubscription tax of Fig 7.
	ModePolling
)

// Config configures a Server.
type Config struct {
	Engine *sim.Engine
	Host   *fabric.Host // server host; its CPU serves event-mode work
	Tree   *rtree.Tree
	Cost   netmodel.CostModel
	Mode   Mode
	// PollCPU must be set in ModePolling.
	PollCPU *sim.PollCPU
	// HeartbeatInterval is the heartbeat period (paper: 10 ms). Zero
	// disables heartbeats (the baselines don't use them).
	HeartbeatInterval time.Duration
	// RingSize is the per-direction ring-buffer size (paper: 256 KB).
	RingSize int
	// StagedNodeWrites publishes tree node writes across a virtual-time
	// window (one cacheline half at a time) so concurrent RDMA readers
	// can observe genuinely torn reads. The window is PerNodeWrite long.
	StagedNodeWrites bool
	// MaxSegmentItems caps result items per response segment (CONT/END
	// framing); 0 selects a segment of ~4 KB.
	MaxSegmentItems int

	// FetchSlots > 0 enables the RFP-style fetch access method: the server
	// registers a dedicated mailbox region of FetchSlots result slots and
	// answers MsgSearchFetch requests with (slot, length, version)
	// descriptors instead of streaming the items back (PAPERS.md,
	// arXiv:1512.07805). Zero disables fetch; MsgSearchFetch then degrades
	// to inline delivery.
	FetchSlots int
	// FetchSlotChunks is the chunks per mailbox slot (0 selects 64, which
	// holds ~5600 result items at the default 4 KB chunk geometry).
	FetchSlotChunks int
	// FetchInlineMax is the result count at or below which a fetch search
	// falls back to inline delivery — small results are cheaper to send
	// than to pull (0 selects MaxSegmentItems: anything fitting one
	// response segment stays inline).
	FetchInlineMax int

	// Metrics, when non-nil, exposes the server counters and the
	// heartbeat-published utilization on the registry under
	// catfish_server_* names.
	Metrics *telemetry.Registry

	// Replica, when non-nil, arms the availability subsystem on this
	// server: epoch fencing, op-log sequencing, and rejection of client
	// writes while the state says backup (StatusNotPrimary). Nil leaves
	// every path bit-for-bit identical to an unreplicated server.
	Replica *replica.State
	// Replicate, when non-nil, ships one applied mutation to the shard's
	// backups. A primary invokes it under the exclusive tree latch, before
	// the write is acknowledged, so an acked write is on every live backup
	// (synchronous replication — the sim stand-in for the one-sided
	// dirty-span write plus op-log record of DESIGN.md §5.11). A non-nil
	// error is surfaced to the client as the corresponding status.
	Replicate func(p *sim.Proc, rec replica.Record) error
}

// Stats aggregates server-side counters. Stats() derives them from atomic
// counters, so it may be called from outside the simulation (progress
// meters, tests under -race) while workers run.
type Stats struct {
	Searches  uint64
	Inserts   uint64
	Deletes   uint64
	Results   uint64
	Heartbeat uint64
	Segments  uint64
	// Moves counts MsgMove requests (single-latch delete+insert); KNNs
	// counts MsgKNN/MsgKNNFetch nearest-neighbor queries.
	Moves uint64
	KNNs  uint64
	// Batches counts batch containers executed; BatchedOps the operations
	// they carried (single-latch, single-charge fast-messaging batching).
	Batches    uint64
	BatchedOps uint64
	// FetchSearches counts MsgSearchFetch and MsgKNNFetch requests;
	// FetchInline the subset answered inline (small result, no free slot,
	// or fetch disabled); FetchBytes the payload bytes delivered through
	// mailbox slots. Searches includes the MsgSearchFetch requests.
	FetchSearches uint64
	FetchInline   uint64
	FetchBytes    uint64
	// Promotions counts accepted MsgPromote requests; ReplRecords the
	// replicated mutations applied on this server as a backup.
	Promotions  uint64
	ReplRecords uint64
}

// Server is the Catfish R-tree server.
type Server struct {
	cfg   Config
	e     *sim.Engine
	tree  *rtree.Tree
	latch *sim.RWLock
	ex    *exec.Executor[*sim.Proc]
	conns []*conn

	regionMem  *fabric.RegionMemory
	regionVers *fabric.RegionVersions
	publishP   *sim.Proc // process context for staged publishes

	// Fetch mailbox: a dedicated registered region divided into result
	// slots (nil when FetchSlots is zero).
	mailbox    *region.Mailbox
	mailboxMem *fabric.RegionMemory

	hbSeq      uint64 // heartbeat sequence number (mailbox word 2)
	hbPaused   atomic.Bool
	heartbeats atomic.Uint64
	lastUtil   telemetry.Gauge // utilization as last published by heartbeatLoop
	lastTXUtil telemetry.Gauge // TX (send engine) utilization as last published
	hbTXBytes  uint64          // send-engine bytes at the previous heartbeat
	hbTXTime   time.Duration   // virtual time of the previous heartbeat
}

// conn is the server side of one client connection.
type conn struct {
	id         int
	reqReader  *ringbuf.Reader
	respWriter *ringbuf.Writer
	hbMem      *fabric.Memory // on the client host
	thread     *sim.PollThread
	tcp        *fabric.TCPConn

	// Reused batch-execution state (one worker per conn, so no locking).
	batchReqs []wire.Request
	batchRes  []exec.Result
}

// Endpoint is what a client needs to talk to the server; returned by
// Connect. Fields are consumed by internal/client.
type Endpoint struct {
	ConnID     int
	ReqWriter  *ringbuf.Writer // client -> server requests
	RespReader *ringbuf.Reader // server -> client responses
	DataQP     *fabric.QP      // client endpoint for one-sided reads
	RegionMem  *fabric.RegionMemory
	RegionVers *fabric.RegionVersions // version-only view for cache revalidation
	HeartbeatM *fabric.Memory         // client-local heartbeat mailbox
	RootChunk  int
	ChunkSize  int
	MaxEntries int
	TCP        *fabric.TCPConn // client endpoint (TCP mode only)

	// Fetch access method (nil/0 when the server has no mailbox): the
	// mailbox region for one-sided result pulls, a dedicated QP so pull
	// completions never interleave with traversal reads, and the slot
	// geometry locating slot i at chunk i×FetchSlotChunks.
	MailboxMem      *fabric.RegionMemory
	FetchQP         *fabric.QP
	FetchSlotChunks int
}

// New creates a server and installs its staged-write publisher when
// configured. The tree must have been created against the same region that
// clients will read.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil || cfg.Host == nil || cfg.Tree == nil {
		return nil, errors.New("server: Engine, Host and Tree are required")
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeEvent
	}
	if cfg.Mode == ModePolling && cfg.PollCPU == nil {
		return nil, errors.New("server: ModePolling requires PollCPU")
	}
	if cfg.Mode == ModeEvent && cfg.Host.CPU() == nil {
		return nil, errors.New("server: ModeEvent requires a host CPU")
	}
	if cfg.RingSize == 0 {
		cfg.RingSize = 256 << 10
	}
	if cfg.MaxSegmentItems == 0 {
		cfg.MaxSegmentItems = 4096 / wire.ItemSize
	}
	if cfg.FetchSlotChunks == 0 {
		cfg.FetchSlotChunks = 64
	}
	if cfg.FetchInlineMax == 0 {
		cfg.FetchInlineMax = cfg.MaxSegmentItems
	}
	s := &Server{
		cfg:   cfg,
		e:     cfg.Engine,
		tree:  cfg.Tree,
		latch: sim.NewRWLock(cfg.Engine),
	}
	s.regionMem = cfg.Host.RegisterRegion(cfg.Tree.Region())
	s.regionVers = cfg.Host.RegisterRegionVersions(cfg.Tree.Region())
	if cfg.FetchSlots > 0 {
		mb, mreg, err := exec.NewMailbox(cfg.FetchSlots, cfg.FetchSlotChunks, cfg.Tree.Region().ChunkSize())
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.mailbox, s.mailboxMem = mb, cfg.Host.RegisterRegion(mreg)
	}
	s.ex = &exec.Executor[*sim.Proc]{
		Tree:            cfg.Tree,
		Latch:           s.latch,
		Mailbox:         s.mailbox,
		FetchInlineMax:  cfg.FetchInlineMax,
		MaxSegmentItems: cfg.MaxSegmentItems,
		Replica:         cfg.Replica,
		Ship:            cfg.Replicate,
		OnRecord:        s.billRecord,
	}
	if cfg.StagedNodeWrites {
		cfg.Tree.SetPublisher(s.stagedPublish)
		s.ex.Stage = s.stageInsert
	}
	if cfg.HeartbeatInterval > 0 {
		s.e.Spawn("server-heartbeat", s.heartbeatLoop)
	}
	if reg := cfg.Metrics; reg != nil {
		s.ex.Register(reg)
		reg.CounterFunc("catfish_server_fast_searches_total",
			func() uint64 { return s.Stats().Searches })
		reg.CounterFunc("catfish_server_fetch_searches_total",
			func() uint64 { return s.Stats().FetchSearches })
		reg.CounterFunc("catfish_server_results_total", s.ex.Results.Load)
		reg.CounterFunc("catfish_server_segments_total", s.ex.Segments.Load)
		reg.CounterFunc("catfish_server_heartbeats_total", s.heartbeats.Load)
		reg.GaugeFunc("catfish_server_utilization", s.lastUtil.Load)
		reg.GaugeFunc("catfish_server_tx_utilization", s.lastTXUtil.Load)
	}
	return s, nil
}

// Stats returns a snapshot of the server counters, safe to call while the
// simulation runs.
func (s *Server) Stats() Stats {
	x := &s.ex.Counters
	return Stats{
		Searches:   x.Searches.Load() + x.SearchFetches.Load(),
		Inserts:    x.Inserts.Load(),
		Deletes:    x.Deletes.Load(),
		Results:    x.Results.Load(),
		Heartbeat:  s.heartbeats.Load(),
		Segments:   x.Segments.Load(),
		Moves:      x.Moves.Load(),
		KNNs:       x.KNNs.Load() + x.KNNFetches.Load(),
		Batches:    x.Batches.Load(),
		BatchedOps: x.BatchedOps.Load(),

		FetchSearches: x.SearchFetches.Load() + x.KNNFetches.Load(),
		FetchInline:   x.FetchInline.Load(),
		FetchBytes:    x.FetchBytes.Load(),

		Promotions:  x.Promotions.Load(),
		ReplRecords: x.ReplRecords.Load(),
	}
}

// Mailbox exposes the fetch mailbox (nil when fetch is disabled) for
// instrumentation.
func (s *Server) Mailbox() *region.Mailbox { return s.mailbox }

// Tree returns the served tree (the harness pre-loads it).
func (s *Server) Tree() *rtree.Tree { return s.tree }

// Connect establishes an RDMA connection from clientHost: two ring buffers
// (requests, responses), a data QP for one-sided reads with the given send
// queue depth, and a heartbeat mailbox. A worker process is spawned to
// serve the connection.
func (s *Server) Connect(clientHost *fabric.Host, net *fabric.Network, dataSQDepth int) (*Endpoint, error) {
	id := len(s.conns)
	reqW, reqR, err := buildRing(net, clientHost, s.cfg.Host, s.cfg.RingSize)
	if err != nil {
		return nil, fmt.Errorf("server: request ring: %w", err)
	}
	respW, respR, err := buildRing(net, s.cfg.Host, clientHost, s.cfg.RingSize)
	if err != nil {
		return nil, fmt.Errorf("server: response ring: %w", err)
	}
	dataQP, _ := net.ConnectQP(clientHost, s.cfg.Host, dataSQDepth)
	hbMem := clientHost.RegisterMemory(HeartbeatMailboxSize)

	c := &conn{id: id, reqReader: reqR, respWriter: respW, hbMem: hbMem}
	if s.cfg.Mode == ModePolling {
		c.thread = s.cfg.PollCPU.Register()
	}
	s.conns = append(s.conns, c)
	s.e.Spawn(fmt.Sprintf("server-worker-%d", id), func(p *sim.Proc) {
		s.serveRDMA(p, c)
	})
	ep := &Endpoint{
		ConnID:     id,
		ReqWriter:  reqW,
		RespReader: respR,
		DataQP:     dataQP,
		RegionMem:  s.regionMem,
		RegionVers: s.regionVers,
		HeartbeatM: hbMem,
		RootChunk:  s.tree.RootChunk(),
		ChunkSize:  s.tree.Region().ChunkSize(),
		MaxEntries: s.tree.MaxEntries(),
	}
	if s.mailbox != nil {
		fetchQP, _ := net.ConnectQP(clientHost, s.cfg.Host, dataSQDepth)
		ep.MailboxMem = s.mailboxMem
		ep.FetchQP = fetchQP
		ep.FetchSlotChunks = s.cfg.FetchSlotChunks
	}
	return ep, nil
}

// ConnectTCP establishes a kernel-TCP connection and spawns its worker.
func (s *Server) ConnectTCP(clientHost *fabric.Host, net *fabric.Network) (*Endpoint, error) {
	id := len(s.conns)
	cEnd, sEnd := net.DialTCP(clientHost, s.cfg.Host)
	// TCP clients get a heartbeat mailbox too (needed for shard liveness
	// tracking); with no QP to write through, the heartbeat loop fills it
	// directly, modeling an out-of-band datagram.
	hbMem := clientHost.RegisterMemory(HeartbeatMailboxSize)
	c := &conn{id: id, tcp: sEnd, hbMem: hbMem}
	if s.cfg.Mode == ModePolling {
		return nil, errors.New("server: TCP workers are always event-based (blocking recv)")
	}
	s.conns = append(s.conns, c)
	s.e.Spawn(fmt.Sprintf("server-tcp-worker-%d", id), func(p *sim.Proc) {
		s.serveTCP(p, c)
	})
	return &Endpoint{ConnID: id, TCP: cEnd, HeartbeatM: hbMem}, nil
}

// buildRing creates a ring carrying data from -> to over a fresh QP pair.
func buildRing(net *fabric.Network, from, to *fabric.Host, size int) (*ringbuf.Writer, *ringbuf.Reader, error) {
	wqp, rqp := net.ConnectQP(from, to, 0)
	return ringbuf.New(wqp, rqp, size)
}

// serveRDMA is the per-connection worker loop. In both modes it sleeps on
// the CQ (costless in simulation); the difference is how request processing
// is charged: event mode runs demands on the work-conserving CPU, polling
// mode routes them through the connection's polling thread, which adds the
// scheduling phase and per-rotation poll tax of the polling design.
func (s *Server) serveRDMA(p *sim.Proc, c *conn) {
	for {
		c.reqReader.CQ().Pop(p)
		for {
			payload, err, ok := c.reqReader.TryRecv()
			if err != nil {
				panic(fmt.Sprintf("server: ring corrupt on conn %d: %v", c.id, err))
			}
			if !ok {
				break
			}
			s.dispatch(p, c, payload)
		}
		if err := c.reqReader.ReportHead(p); err != nil {
			panic(fmt.Sprintf("server: head report failed: %v", err))
		}
	}
}

// serveTCP is the blocking-recv TCP worker loop.
func (s *Server) serveTCP(p *sim.Proc, c *conn) {
	for {
		s.dispatch(p, c, c.tcp.Recv(p))
	}
}

// dispatch routes one incoming message: a batch container or a single
// request.
func (s *Server) dispatch(p *sim.Proc, c *conn, payload []byte) {
	if len(payload) > 0 && wire.MsgType(payload[0]) == wire.MsgBatch {
		s.serveBatch(p, c, payload)
		return
	}
	if len(payload) > 0 && wire.MsgType(payload[0]) == wire.MsgFetchAck {
		// Fire-and-forget slot release; a malformed or stale ack is dropped.
		if ack, err := wire.DecodeFetchAck(payload); err == nil && s.mailbox != nil {
			s.mailbox.Reclaim(int(ack.Slot), ack.Seq)
		}
		return
	}
	req, err := wire.DecodeRequest(payload)
	if err != nil {
		s.reply(p, c, &exec.Result{Status: wire.StatusError})
		return
	}
	s.serve(p, c, req)
}

// charge accounts CPU service for a request on this connection.
func (s *Server) charge(p *sim.Proc, c *conn, demand time.Duration) {
	if s.cfg.Mode == ModePolling {
		c.thread.Process(p, demand)
		return
	}
	s.cfg.Host.CPU().Run(p, demand)
}

// serve executes one request and sends the response.
func (s *Server) serve(p *sim.Proc, c *conn, req wire.Request) {
	r := s.ex.Do(p, req)
	if d, ok := s.demand(0, req.Type, &r, false); ok {
		s.charge(p, c, d)
	}
	s.reply(p, c, &r)
}

// serveBatch executes a batch container under one latch acquisition and
// one CPU charge, whose per-operation fixed costs are amortized
// (CostModel.BatchedOpFixed), and writes the results back as batch
// containers below the transport frame limit.
func (s *Server) serveBatch(p *sim.Proc, c *conn, payload []byte) {
	reqs, err := exec.DecodeBatch(payload, c.batchReqs)
	c.batchReqs = reqs
	if err != nil {
		s.reply(p, c, &exec.Result{Status: wire.StatusError})
		return
	}
	res, ran := s.ex.DoBatch(p, reqs, c.batchRes)
	c.batchRes = res
	if ran {
		var demand time.Duration
		for i := range res {
			d, _ := s.demand(i, reqs[i].Type, &res[i], true)
			demand += d
		}
		s.charge(p, c, demand)
	}
	limit := 16 << 10
	if c.respWriter != nil {
		limit = min(limit, c.respWriter.MaxPayload())
	}
	s.ex.WriteBatch(res, limit, func(b []byte) error { s.send(p, c, b); return nil })
}

// demand is the CPU service the i-th operation of a batch bills (i = 0 is
// the unbatched rate), and whether it bills at all. A read bills when it
// succeeds, at the fetch rate when its answer went to the mailbox; a write
// bills once it reaches the tree. An unbatched write refused for not being
// primary still pays its fixed cost.
func (s *Server) demand(i int, typ wire.MsgType, r *exec.Result, batched bool) (time.Duration, bool) {
	cost, st := s.cfg.Cost, r.Stats
	switch exec.ModeOf(typ) {
	case exec.Shared:
		if r.Status != wire.StatusOK {
			return 0, false
		}
		if r.Fetched {
			return cost.FetchDemandBatched(i, st.NodesRead, st.Results), true
		}
		return cost.SearchDemandBatched(i, st.NodesRead, st.Results), true
	case exec.Exclusive:
		if r.Ran || (!batched && r.Status == wire.StatusNotPrimary) {
			return cost.InsertDemandBatched(i, st.NodesRead, st.NodesWritten), true
		}
	}
	return 0, false
}

// stageInsert brackets a tree insert under StagedNodeWrites: while on,
// each node publish is spread over the PerNodeWrite window via a staged
// region write from p, opening a real torn-read window for concurrent
// one-sided readers.
func (s *Server) stageInsert(p *sim.Proc, on bool) {
	if !on {
		p = nil
	}
	s.publishP = p
}

// stagedPublish is the tree publisher installed under StagedNodeWrites:
// inside a request it holds the torn window open for the PerNodeWrite cost;
// outside requests (bulk loading) it publishes atomically.
func (s *Server) stagedPublish(chunkID int, payload []byte) error {
	if s.publishP == nil {
		return s.tree.Region().WriteChunkPrefix(chunkID, payload)
	}
	w, err := s.tree.Region().BeginWrite(chunkID, payload)
	if err != nil {
		return err
	}
	s.publishP.Sleep(s.cfg.Cost.PerNodeWrite)
	w.Finish()
	return nil
}

// reply sends one result as its response messages.
func (s *Server) reply(p *sim.Proc, c *conn, r *exec.Result) {
	s.ex.WriteResult(r, func(b []byte) error { s.send(p, c, b); return nil })
}

// send transmits an encoded message over the connection's transport.
func (s *Server) send(p *sim.Proc, c *conn, payload []byte) {
	if c.tcp != nil {
		c.tcp.Send(p, payload)
		return
	}
	if err := c.respWriter.Send(p, payload, 0, true); err != nil {
		panic(fmt.Sprintf("server: response send failed: %v", err))
	}
}

// HeartbeatMailboxSize is the registered per-client heartbeat mailbox:
// word 0 carries the utilization (u_serv), word 1 the root chunk's region
// version, which lets root-caching clients invalidate within one heartbeat
// interval of a root rewrite, word 2 a sequence number incremented per
// heartbeat write so liveness trackers can detect arrivals (Algorithm 1's
// clear-after-read convention zeroes only word 0, and non-adaptive clients
// never clear at all, so the utilization word cannot signal arrival), and
// word 3 the send-engine (TX NIC) utilization feeding the 3-way switch's
// TX predictor. Decoders tolerate the pre-fetch 24-byte layout — a short
// mailbox simply reads as TX utilization zero (see DecodeHeartbeatMailbox).
const HeartbeatMailboxSize = 32

// HeartbeatMailboxSizeLegacy is the pre-fetch mailbox layout without the
// TX word, kept for layout-compatibility tests and mixed-version runs.
const HeartbeatMailboxSizeLegacy = 24

// HeartbeatView is a decoded heartbeat mailbox.
type HeartbeatView struct {
	Util    float64
	RootVer uint64
	Seq     uint64
	TXUtil  float64
}

// DecodeHeartbeatMailbox decodes a heartbeat mailbox image, tolerating
// both the legacy (24-byte, no TX word) and widened (32-byte) layouts; on
// the legacy layout TXUtil reads as zero, which keeps the 3-way switch in
// its binary behaviour. Shorter images decode to the zero view ("no
// heartbeat yet").
func DecodeHeartbeatMailbox(b []byte) HeartbeatView {
	var v HeartbeatView
	if len(b) >= 8 {
		v.Util = math.Float64frombits(binary.LittleEndian.Uint64(b[0:]))
	}
	if len(b) >= 16 {
		v.RootVer = binary.LittleEndian.Uint64(b[8:])
	}
	if len(b) >= HeartbeatMailboxSizeLegacy {
		v.Seq = binary.LittleEndian.Uint64(b[16:])
	}
	if len(b) >= HeartbeatMailboxSize {
		v.TXUtil = math.Float64frombits(binary.LittleEndian.Uint64(b[24:]))
	}
	return v
}

// PauseHeartbeats suspends (true) or resumes (false) heartbeat publication,
// simulating a wedged or partitioned server for liveness tests. The data
// path keeps serving.
func (s *Server) PauseHeartbeats(paused bool) { s.hbPaused.Store(paused) }

// Kill simulates a crashed process: heartbeats freeze and every subsequent
// request — including batches and promote attempts — is answered with
// StatusUnavailable. Requests must still be answered: a silent drop would
// leave the waiting client proc blocked forever and wedge the
// discrete-event engine.
func (s *Server) Kill() { s.ex.Kill() }

// Killed reports whether Kill has been called.
func (s *Server) Killed() bool { return s.ex.Killed() }

// ApplyReplica applies one replicated mutation on a backup: epoch fencing
// and sequence validation through the replica state, then the tree write
// under the exclusive latch with the same CPU charge a client write pays.
// It is the simulation's stand-in for the backup-side apply of the
// primary's streamed dirty spans (DESIGN.md §5.11).
func (s *Server) ApplyReplica(p *sim.Proc, rec replica.Record) error {
	return s.ex.ApplyRecords(p, []replica.Record{rec})
}

// billRecord charges an applied replica record, under the latch, at the
// rate a client write pays.
func (s *Server) billRecord(p *sim.Proc, _ replica.Record, st rtree.OpStats) {
	if s.cfg.Mode == ModeEvent {
		s.cfg.Host.CPU().Run(p, s.cfg.Cost.InsertDemand(st.NodesRead, st.NodesWritten))
	}
}

// heartbeatLoop periodically publishes the CPU utilization to every
// connected client's heartbeat mailbox with an RDMA Write (§IV-A). A
// reported zero would read as "no heartbeat" under Algorithm 1's u_serv≠0
// check, so utilization is floored at a small positive value.
func (s *Server) heartbeatLoop(p *sim.Proc) {
	for {
		p.Sleep(s.cfg.HeartbeatInterval)
		if s.hbPaused.Load() || s.ex.Killed() {
			continue
		}
		util := s.utilization()
		if util < 1e-6 {
			util = 1e-6
		}
		s.lastUtil.Set(util)
		txUtil := s.txUtilization()
		s.lastTXUtil.Set(txUtil)
		var buf [HeartbeatMailboxSize]byte
		putFloat(buf[:8], util)
		rootVer, err := s.tree.Region().Version(s.tree.RootChunk())
		if err == nil {
			binary.LittleEndian.PutUint64(buf[8:], rootVer)
		}
		s.hbSeq++
		binary.LittleEndian.PutUint64(buf[16:], s.hbSeq)
		putFloat(buf[24:], txUtil)
		for _, c := range s.conns {
			if c.hbMem == nil {
				continue
			}
			if c.respWriter == nil {
				// Simulated-TCP endpoint: no QP to write through, so the
				// heartbeat lands in the mailbox directly.
				copy(c.hbMem.Bytes(), buf[:])
				s.heartbeats.Add(1)
				continue
			}
			// One small RDMA Write into the client's mailbox; no notify —
			// the client reads u_serv when it next runs Algorithm 1.
			qp := c.respWriter.QP()
			if err := qp.Write(p, c.hbMem, 0, buf[:], fabric.WriteOpts{}); err != nil {
				panic(fmt.Sprintf("server: heartbeat write failed: %v", err))
			}
			s.heartbeats.Add(1)
		}
	}
}

// utilization returns the server's windowed CPU utilization: the PS CPU's
// measured window in event mode, or the pegged 1.0 a polling server's
// /proc/stat would show.
func (s *Server) utilization() float64 {
	if s.cfg.Mode == ModePolling {
		return s.cfg.PollCPU.UtilizationWindow()
	}
	return s.cfg.Host.CPU().UtilizationWindow()
}

// txUtilization returns the send engine's utilization since the previous
// heartbeat: bytes the CPU posted over the interval, as a fraction of line
// rate. One-sided READ responses (responder engine) are deliberately
// excluded — they impose no send-queue pressure, which is exactly why the
// fetch method relieves a send-engine-bound server.
func (s *Server) txUtilization() float64 {
	now := s.e.Now()
	cur := s.cfg.Host.TXBytes()
	elapsed := now - s.hbTXTime
	delta := cur - s.hbTXBytes
	s.hbTXTime, s.hbTXBytes = now, cur
	if elapsed <= 0 {
		return 0
	}
	util := float64(delta) * 8 / (elapsed.Seconds() * s.cfg.Host.LineRateBps())
	if util > 1 {
		util = 1
	}
	return util
}

func putFloat(b []byte, f float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(f))
}
