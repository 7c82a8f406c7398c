package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	catfish "github.com/catfish-db/catfish"
	"github.com/catfish-db/catfish/internal/rpcnet"
)

// The server runs in a child process so its CPU time, syscalls and heap
// can be read apart from the load generator's. The two talk over the
// child's stdin/stdout, one JSON object per line:
//
//	child  -> {"addrs": [...]}            once every shard listens
//	parent -> "stats"  child -> childStats
//	parent -> "gc"     child -> childStats after a forced collection
//	parent -> "quit"   child closes its servers and exits
//
// Closing stdin also stops the child, so it never outlives the parent.

// childReady is the child's first line.
type childReady struct {
	Addrs []string `json:"addrs"`
}

// childStats is the child's answer to "stats" and "gc".
type childStats struct {
	Servers    []rpcnet.ServerStats `json:"servers"`
	Mallocs    uint64               `json:"mallocs"`
	TotalAlloc uint64               `json:"total_alloc"`
	HeapAlloc  uint64               `json:"heap_alloc"`
}

func serveMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	name := fs.String("workload", "", "workload whose dataset to serve")
	seed := fs.Int64("seed", 1, "dataset seed")
	cpuFlag := fs.String("cpus", "", "comma-separated CPUs to run on")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cpus, err := parseCPUs(*cpuFlag)
	if err == nil {
		err = pin(cpus)
	}
	if err == nil {
		err = serve(*name, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench serve:", err)
		return 1
	}
	return 0
}

func serve(name string, seed int64) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	smap, parts, err := shardEntries(w, w.entries(seed))
	if err != nil {
		return err
	}
	var srvs []*catfish.NetServer
	defer func() {
		for _, s := range srvs {
			s.Close()
		}
	}()
	ready := childReady{}
	for i, part := range parts {
		tree, err := buildTree(part)
		if err != nil {
			return err
		}
		cfg := w.server
		cfg.ShardMap = smap
		cfg.ShardIndex = i
		srv, err := catfish.Listen("127.0.0.1:0", tree, cfg)
		if err != nil {
			return err
		}
		srvs = append(srvs, srv)
		go srv.Serve() //nolint:errcheck // returns on Close
		ready.Addrs = append(ready.Addrs, srv.Addr().String())
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(ready); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch in.Text() {
		case "stats", "gc":
			if in.Text() == "gc" {
				runtime.GC()
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			st := childStats{Mallocs: ms.Mallocs, TotalAlloc: ms.TotalAlloc, HeapAlloc: ms.HeapAlloc}
			for _, s := range srvs {
				st.Servers = append(st.Servers, s.Stats())
			}
			if err := out.Encode(st); err != nil {
				return err
			}
		case "quit":
			return nil
		default:
			return fmt.Errorf("unknown command %q", in.Text())
		}
	}
	return in.Err()
}
