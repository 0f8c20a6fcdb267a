package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/obs"
)

// layerSnap is the state the traced run reads from outside the program,
// before and after the measured phase.
type layerSnap struct {
	obs       obs.Snapshot
	classes   [cluster.NumOpClasses]cluster.ClassStats
	aborts    int64
	devReads  int64
	devWrites int64
	mallocs   uint64
	allocs    uint64
	cpu       time.Duration
}

// takeLayerSnap reads the engine's counters and the process's.
func takeLayerSnap(e *cluster.Engine) layerSnap {
	var s layerSnap
	for c := cluster.OpClass(0); c < cluster.NumOpClasses; c++ {
		s.classes[c] = e.Stats().Class(c)
	}
	s.aborts = e.Stats().Aborts()
	for _, site := range e.Sites {
		r, w := site.Dev.Counters()
		s.devReads += r
		s.devWrites += w
	}
	s.obs = e.MetricsSnapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocs = ms.Mallocs, ms.TotalAlloc
	s.cpu = processCPU()
	return s
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (s layerSnap) counter(name string) int64 { return s.obs.Counters[name] }

// recorderSum is the total of a latency recorder's samples.
func (s layerSnap) recorderSum(name string) float64 {
	l := s.obs.Latencies[name]
	return float64(l.Avg) * float64(l.Count)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics from three snapshots: of the
// measured engine before its tables are loaded (s0), and before (s1) and after (s2) its
// measured phase. Every metric is a count or mean per operation, where an
// operation is a transaction or a query.
func layerMetrics(res *runResult, s0, s1, s2 layerSnap, all []sample) {
	var txns, queries float64
	for _, s := range all {
		if s.kind == opTxn {
			txns++
		} else {
			queries++
		}
	}
	ops := txns + queries
	d := func(name string) float64 { return float64(s2.counter(name) - s1.counter(name)) }
	class := func(c cluster.OpClass) float64 {
		n := s2.classes[c].Count - s1.classes[c].Count
		t := s2.classes[c].TotalTime - s1.classes[c].TotalTime
		return ratio(us(t), float64(n))
	}

	res.put("simnet.msgs_per_op", d("net.messages")/ops, "count")
	res.put("simnet.bytes_per_op", d("net.bytes")/ops, "bytes")

	res.put("plan.txn_us", class(cluster.ClassOLTPPlan), "us")
	res.put("plan.query_us", class(cluster.ClassOLAPPlan), "us")
	res.put("cluster.txn_us", class(cluster.ClassOLTP), "us")
	res.put("cluster.query_us", class(cluster.ClassOLAP), "us")
	res.put("go.cpu_us_per_op", us(s2.cpu-s1.cpu)/ops, "us")
	res.put("go.allocs_per_op", float64(s2.mallocs-s1.mallocs)/ops, "count")
	res.put("go.alloc_bytes_per_op", float64(s2.allocs-s1.allocs)/ops, "bytes")

	groups := s2.obs.Latencies["commit.groupsize"].Count - s1.obs.Latencies["commit.groupsize"].Count
	res.put("commit.group_size", ratio(s2.recorderSum("commit.groupsize")-s1.recorderSum("commit.groupsize"), float64(groups)), "count")
	res.put("commit.flushes_per_txn", ratio(d("commit.flushes"), txns), "count")
	res.put("redolog.appends_per_txn", ratio(d("redolog.appends"), txns), "count")
	res.put("txn.aborts_per_txn", ratio(float64(s2.aborts-s1.aborts), txns), "count")

	res.put("scan.morsels_per_query", ratio(d("exec.morsels.scheduled"), queries), "count")
	res.put("scan.morsels_pruned_per_query", ratio(d("exec.morsels.pruned"), queries), "count")
	res.put("scan.rows_scanned_per_query", ratio(d("exec.batches.rows_scanned"), queries), "count")
	res.put("scan.rows_selected_per_query", ratio(d("exec.batches.rows_selected"), queries), "count")
	res.put("storage.pool_hit_ratio", ratio(d("exec.batches.pool_hits"), d("exec.batches.pool_gets")), "ratio")

	// Encodings are chosen when columns are built, mostly at load, so this
	// ratio spans the measured engine's whole life.
	res.put("colstore.stored_over_plain", ratio(
		float64(s2.counter("colstore.encoding.bytes.stored")-s0.counter("colstore.encoding.bytes.stored")),
		float64(s2.counter("colstore.encoding.bytes.plain_equiv")-s0.counter("colstore.encoding.bytes.plain_equiv"))), "ratio")
	res.put("colstore.code_filters_per_query", ratio(d("exec.encoded.code_filters"), queries), "count")
	var maintRows, maintNs float64
	for i := 0; ; i++ {
		prefix := fmt.Sprintf("site%d.maintain.", i)
		if _, ok := s2.obs.Counters[prefix+"rows"]; !ok {
			break
		}
		maintRows += d(prefix + "rows")
		maintNs += s2.recorderSum(prefix+"latency") - s1.recorderSum(prefix+"latency")
	}
	res.put("colstore.maintain_rows_per_txn", ratio(maintRows, txns), "count")
	res.put("colstore.maintain_us_per_txn", ratio(maintNs/1e3, txns), "us")

	res.put("join.build_rows_per_query", ratio(d("exec.join.build_rows"), queries), "count")
	res.put("join.probe_rows_per_query", ratio(d("exec.join.probe_rows"), queries), "count")
	res.put("join.build_us_per_query", ratio(d("exec.join.build_ns")/1e3, queries), "us")
	res.put("join.probe_us_per_query", ratio(d("exec.join.probe_ns")/1e3, queries), "us")
	res.put("join.bloom_pass_ratio", ratio(d("exec.join.bloom_passed"), d("exec.join.bloom_tested")), "ratio")
	res.put("groupby.rows_coded_per_query", ratio(d("exec.groupby.rows_coded"), queries), "count")
	res.put("groupby.rows_boxed_per_query", ratio(d("exec.groupby.rows_boxed"), queries), "count")

	res.put("disksim.reads_per_op", float64(s2.devReads-s1.devReads)/ops, "count")
	res.put("disksim.writes_per_op", float64(s2.devWrites-s1.devWrites)/ops, "count")

	// The latency split the end-to-end metrics fold together: per round,
	// the summed latency of the single-table and the join queries, and the
	// transaction percentiles.
	var txnLats []time.Duration
	scan, join := map[int32]time.Duration{}, map[int32]time.Duration{}
	for _, s := range all {
		switch s.kind {
		case opTxn:
			txnLats = append(txnLats, s.lat)
		case opScan:
			scan[s.round] += s.lat
		case opJoin:
			join[s.round] += s.lat
		}
	}
	res.put("trace.scan_round_ms", medianRound(scan), "ms")
	res.put("trace.join_round_ms", medianRound(join), "ms")
	sortDur(txnLats)
	var p50, p90 float64
	if len(txnLats) > 0 {
		p50, p90 = ms(quantileDur(txnLats, 0.5)), ms(quantileDur(txnLats, 0.9))
	}
	res.put("trace.txn_p50_ms", p50, "ms")
	res.put("trace.txn_p90_ms", p90, "ms")
}

func medianRound(m map[int32]time.Duration) float64 {
	if len(m) == 0 {
		return 0
	}
	var xs []float64
	for _, d := range m {
		xs = append(xs, ms(d))
	}
	return median(xs)
}
