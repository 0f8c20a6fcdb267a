// Command perfbench is the repository's benchmark. It drives the engine only
// through its public entry points (cluster.New, CreateTable, LoadRows,
// ExecuteTxn and ExecuteQuery), runs one named workload for a fixed time
// with closed-loop clients, checks every output against a model kept apart
// from the engine, and prints its metrics. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// installs a recording clock and prints the per-layer ones. --repeat N runs
// the workload N times in child processes and prints each metric's median
// and quartiles. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"proteus/internal/cluster"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	repeat   int
	mode     string
	memCapMB int
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: ycsb-oltp, ch-olap or ch-htap")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every input generator")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for the traced run's spans")
	fs.IntVar(&o.repeat, "repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and print medians and quartiles")
	fs.StringVar(&o.mode, "mode", "", "engine mode instead of the workload's pinned one (reference figures only): proteus, rowstore or columnstore")
	fs.IntVar(&o.memCapMB, "mem-cap-mb", 0, "cap each site's memory tier at this many MiB (reference figures only; 0 is unlimited)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want ycsb-oltp, ch-olap or ch-htap)", o.workload)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.repeat > 0 {
		return repeat(o, args)
	}
	spec := workloads[o.workload]
	mode := spec.mode
	if o.mode != "" {
		if mode, err = parseMode(o.mode); err != nil {
			return err
		}
	}
	res, err := runOnce(o, spec, mode)
	if err != nil {
		return err
	}
	for _, name := range res.order {
		m := res.metrics[name]
		fmt.Printf("%-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, msg := range res.mismatches {
		fmt.Println("MISMATCH:", msg)
	}
	line, err := json.Marshal(result{
		Correct:   len(res.mismatches) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   res.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// result is the JSON object the command prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func parseMode(s string) (cluster.Mode, error) {
	for _, m := range []cluster.Mode{cluster.ModeProteus, cluster.ModeRowStore, cluster.ModeColumnStore} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

// engineConfig is the configuration every workload runs on: two sites, the
// default 50 µs interconnect, an unlimited memory tier and the given clock.
func engineConfig(mode cluster.Mode, seed int64, clk *recClock) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Mode = mode
	cfg.NumSites = 2
	cfg.FaultSeed = seed
	if clk != nil {
		cfg.Clock = clk
	}
	return cfg
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
