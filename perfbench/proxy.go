package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/catfish-db/catfish/internal/rpcnet"
	"github.com/catfish-db/catfish/internal/wire"
)

// The traced phase routes every connection through an observe-only
// proxy. It forwards each length-prefixed frame unchanged and records its
// arrival time, type (wire.PeekType) and, for request and reply types,
// the wire request id, so round trips can be keyed to the ops that caused
// them. It also keeps a bounded sample of raw frames for the wire replay.

// rawSampleBytes caps the raw frames kept per connection and direction.
const rawSampleBytes = 4 << 20

// requests lists the message types whose request id sits at bytes 1..9,
// mapping each to whether it travels client to server.
var requests = map[wire.MsgType]bool{
	wire.MsgSearch: true, wire.MsgInsert: true, wire.MsgDelete: true,
	wire.MsgMove: true, wire.MsgKNN: true, wire.MsgKNNFetch: true,
	wire.MsgSearchFetch: true, wire.MsgReadChunk: true, wire.MsgReadSpan: true,
	wire.MsgReadVersions: true, wire.MsgReadMailbox: true, wire.MsgShardMap: true,
	wire.MsgResponse: false, wire.MsgChunkData: false, wire.MsgSpanData: false,
	wire.MsgVersionData: false, wire.MsgFetchDesc: false, wire.MsgShardMapData: false,
}

// frameEvent is one forwarded frame.
type frameEvent struct {
	t   int64 // nanoseconds since the proxy's base time
	id  uint64
	typ wire.MsgType
}

// flow is one direction of a proxied connection; only its pump writes it.
type flow struct {
	events   []frameEvent
	raw      [][]byte
	rawBytes int
}

// pconn is one proxied connection, numbered in accept order per listener.
type pconn struct {
	listener, index int
	client, server  net.Conn
	up, down        flow // client->server, server->client
}

type proxy struct {
	base     time.Time
	targets  []string
	lns      []net.Listener
	sampling atomic.Bool // keep raw frames while set

	mu    sync.Mutex
	conns []*pconn
	wg    sync.WaitGroup
}

// startProxy listens on one loopback port per target address.
func startProxy(base time.Time, targets []string) (*proxy, error) {
	p := &proxy{base: base, targets: targets}
	for range targets {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			p.close()
			return nil, err
		}
		p.lns = append(p.lns, ln)
	}
	for i := range p.lns {
		p.wg.Add(1)
		go p.accept(i)
	}
	return p, nil
}

func (p *proxy) addrs() []string {
	out := make([]string, len(p.lns))
	for i, ln := range p.lns {
		out[i] = ln.Addr().String()
	}
	return out
}

func (p *proxy) accept(l int) {
	defer p.wg.Done()
	next := 0
	for {
		c, err := p.lns[l].Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", p.targets[l])
		if err != nil {
			c.Close()
			continue
		}
		pc := &pconn{listener: l, index: next, client: c, server: s}
		next++
		p.mu.Lock()
		p.conns = append(p.conns, pc)
		p.wg.Add(2)
		p.mu.Unlock()
		go p.pump(c, s, &pc.up)
		go p.pump(s, c, &pc.down)
	}
}

// pump forwards frames from src to dst until either side closes.
func (p *proxy) pump(src, dst net.Conn, f *flow) {
	defer p.wg.Done()
	defer src.Close()
	defer dst.Close()
	r := bufio.NewReaderSize(src, 64<<10)
	buf := make([]byte, 64<<10)
	for {
		if _, err := io.ReadFull(r, buf[:4]); err != nil {
			return
		}
		n := int(binary.LittleEndian.Uint32(buf))
		if n > rpcnet.MaxFrame {
			return
		}
		if len(buf) < 4+n {
			buf = append(buf[:4], make([]byte, n)...)
		}
		frame := buf[:4+n]
		if _, err := io.ReadFull(r, frame[4:]); err != nil {
			return
		}
		ev := frameEvent{t: int64(time.Since(p.base))}
		if typ, err := wire.PeekType(frame[4:]); err == nil {
			ev.typ = typ
			if _, ok := requests[typ]; ok && n >= 9 {
				ev.id = binary.LittleEndian.Uint64(frame[5:])
			}
		}
		f.events = append(f.events, ev)
		if p.sampling.Load() && f.rawBytes < rawSampleBytes {
			f.raw = append(f.raw, append([]byte(nil), frame[4:]...))
			f.rawBytes += n
		}
		if _, err := dst.Write(frame); err != nil {
			return
		}
	}
}

// close stops accepting, tears down every proxied connection and waits for
// the pumps; afterwards the recorded flows are safe to read.
func (p *proxy) close() {
	for _, ln := range p.lns {
		ln.Close()
	}
	p.mu.Lock()
	for _, pc := range p.conns {
		pc.client.Close()
		pc.server.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// roundTrip is one request and its replies as the proxy saw them.
type roundTrip struct {
	client     int
	start, end int64 // request forwarded; last reply forwarded (0 if none)
}

// traceCounts is what the proxy saw inside the traced window.
type traceCounts struct {
	roundTrips, framesOut int
	rts                   []roundTrip
}

// analyze collects the round trips whose request was forwarded inside
// [from, to] and attributes each to its client. Clients connect one after
// another and rpcnet hands out the lowest free stream id, so on each
// listener the k-th (connection, stream) pair in accept and id order
// belongs to client k.
func (p *proxy) analyze(from, to int64) (traceCounts, error) {
	var tc traceCounts
	owner := map[[3]uint64]int{}
	next := make([]int, len(p.lns))
	for _, pc := range p.conns {
		seen := map[uint32]bool{}
		var streams []uint32
		for _, ev := range pc.up.events {
			if requests[ev.typ] && !seen[uint32(ev.id>>32)] {
				seen[uint32(ev.id>>32)] = true
				streams = append(streams, uint32(ev.id>>32))
			}
		}
		slices.Sort(streams)
		for _, s := range streams {
			owner[[3]uint64{uint64(pc.listener), uint64(pc.index), uint64(s)}] = next[pc.listener]
			next[pc.listener]++
		}
	}
	for l, n := range next {
		if n > numClients {
			return tc, fmt.Errorf("proxy: listener %d carries %d request streams for %d clients", l, n, numClients)
		}
	}
	for _, pc := range p.conns {
		open := map[uint64]int{}
		for _, ev := range pc.up.events {
			if !requests[ev.typ] || ev.t < from || ev.t > to {
				continue
			}
			c := owner[[3]uint64{uint64(pc.listener), uint64(pc.index), ev.id >> 32}]
			open[ev.id] = len(tc.rts)
			tc.rts = append(tc.rts, roundTrip{client: c, start: ev.t})
		}
		for _, ev := range pc.down.events {
			if ev.t < from || ev.t > to || ev.typ == wire.MsgHeartbeat {
				continue
			}
			tc.framesOut++
			if i, ok := open[ev.id]; ok && !requests[ev.typ] {
				tc.rts[i].end = ev.t
			}
		}
	}
	tc.roundTrips = len(tc.rts)
	return tc, nil
}
