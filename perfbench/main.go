// Command perfbench is Catfish's real-socket benchmark. It serves a
// seeded dataset from a child process (rpcnet over loopback TCP), drives
// it from two closed-loop clients in this process, checks the answers,
// and prints every metric named in BENCHMARK.json, ending with one JSON
// line:
//
//	perfbench --workload fast-point --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 splits the window
// into an untraced and a traced half and reports the per-layer metrics.
// See README.md for the workloads and what each metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fast-point, offload-range or fleet-mixed")
	seed := fs.Int64("seed", 1, "seed of the dataset and the request streams")
	seconds := fs.Int("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
	spans := fs.String("spans", "", "directory to write the traced phase's op spans to (empty skips them)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	res, err := runBench(config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, spansDir: *spans})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, n := range res.notes {
		fmt.Printf("# %s: %s\n", w.name, n)
	}
	for _, m := range res.metrics {
		fmt.Printf("%-14s %-40s %16.6g %s\n", w.name, m.name, m.value, m.unit)
		out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
