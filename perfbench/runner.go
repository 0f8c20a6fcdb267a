package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/schema"
)

// workloadSpec names a workload's pinned engine mode, builds its inputs from
// a seed, and fixes the work after which the resource metrics are taken.
type workloadSpec struct {
	mode cluster.Mode
	new  func(seed int64) bench
	// checkpointRounds is the number of measured rounds, over all clients,
	// at whose end CPU time, space and heap are read. Taken at a fixed
	// amount of work, they do not rise when a faster run does more of it:
	// row versions accumulate with every update (CHANGES.md). The number
	// is about 40% of what a 20 s run completes on the reference host.
	checkpointRounds int64
}

var workloads = map[string]workloadSpec{
	"ycsb-oltp": {mode: cluster.ModeRowStore, new: newYCSB, checkpointRounds: 4000},
	"ch-olap": {mode: cluster.ModeColumnStore, checkpointRounds: 60,
		new: func(seed int64) bench { return newCH(seed, 0) }},
	"ch-htap": {mode: cluster.ModeColumnStore, checkpointRounds: 28,
		new: func(seed int64) bench { return newCH(seed, chTxnsPerQuery) }},
}

// bench is one workload's inputs, clients and model.
type bench interface {
	// setup creates the tables and loads the generated rows.
	setup(ctx context.Context, e *cluster.Engine, load loadFunc) error
	// clients returns the closed-loop clients of the run.
	clients() []client
	// check replays every recorded output against the model, then compares
	// the engine's final state with the model's. It returns the mismatches
	// and the logical size of the model's live rows once the first
	// clientOps operations of its client have applied.
	check(ctx context.Context, e *cluster.Engine, clientOps int) ([]string, int64)
}

// loadFunc bulk-loads rows through Engine.LoadRows.
type loadFunc func(tbl schema.TableID, rows []schema.Row) error

// client issues operations in whole rounds, each engine call through do.
type client interface {
	round(ctx context.Context, e *cluster.Engine, do doFunc)
}

// opKind classifies an operation for the latency breakdowns.
type opKind uint8

const (
	opTxn  opKind = iota
	opScan        // single-table query
	opJoin        // query with a join
)

func (k opKind) String() string {
	return [...]string{"txn", "scan", "join"}[k]
}

// doFunc runs one engine call as an operation: it times the call, counts it
// and, in the traced run, records its span.
type doFunc func(kind opKind, call func() error) error

type sample struct {
	kind  opKind
	round int32
	lat   time.Duration
}

// clientLog is one client's measurements.
type clientLog struct {
	samples   []sample
	round     int32
	measuring bool
	issued    int // operations including the warm-up's
	attempted int64
	failed    int64
	firstErr  error
	// completed counts the measured phase's successful operations; other
	// clients read it at the checkpoint.
	completed atomic.Int64
}

func (l *clientLog) do(tr *tracer, kind opKind, call func() error) error {
	l.issued++
	var sp span
	if tr != nil {
		sp = tr.beginOp(kind)
	}
	start := time.Now()
	err := call()
	lat := time.Since(start)
	if tr != nil {
		tr.endOp(sp)
	}
	if !l.measuring {
		return err
	}
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
		return err
	}
	l.samples = append(l.samples, sample{kind: kind, round: l.round, lat: lat})
	l.completed.Add(1)
	return nil
}

// checkpoint holds what was read when the measured rounds reached the
// workload's checkpointRounds.
type checkpoint struct {
	once      sync.Once
	ops       int64 // operations completed in the measured phase
	clientOps int   // operations the reaching client had issued, warm-up included
	cpu       time.Duration
	stored    int64
	heap      uint64
}

func (cp *checkpoint) take(e *cluster.Engine, logs []*clientLog, l *clientLog, cpu0 time.Duration, heap *heapSampler) {
	cp.once.Do(func() {
		cp.cpu = processCPU() - cpu0
		cp.heap = heap.peak.Load()
		for _, s := range e.Sites {
			cp.stored += s.MemUsage() + s.DiskUsage()
		}
		cp.clientOps = l.issued
		for _, l := range logs {
			cp.ops += l.completed.Load()
		}
	})
}

// runResult is what one run measured.
type runResult struct {
	order      []string
	metrics    map[string]metric
	attempted  int64
	failed     int64
	mismatches []string
}

func (r *runResult) put(name string, v float64, unit string) {
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// setupsPerRun is how many times a timed run sets up the database;
// setup_s is their median. The traced run sets up once.
const setupsPerRun = 21

// warmup is how long clients run before the measured phase, so plan and
// decision caches fill and lazy set-up finishes. Its operations are checked
// like all others but not measured.
const warmup = time.Second

func runOnce(o options, spec workloadSpec, mode cluster.Mode) (*runResult, error) {
	ctx := context.Background()
	var tr *tracer
	setups := setupsPerRun
	if o.trace {
		tr = newTracer()
		setups = 1
	}

	// Set up several times; setup_s is the median, and the last engine is
	// the one measured.
	var b bench
	var e *cluster.Engine
	var setupTimes []float64
	var layers0 layerSnap
	for i := 0; i < setups; i++ {
		if e != nil {
			e.Close()
		}
		b = spec.new(o.seed)
		runtime.GC()
		start := time.Now()
		e = cluster.New(engineConfig(mode, o.seed, tr.clock()))
		if tr != nil {
			layers0 = takeLayerSnap(e)
		}
		if o.memCapMB > 0 {
			e.SetMemCapacityPerSite(int64(o.memCapMB) << 20)
		}
		eng := e
		load := func(tbl schema.TableID, rows []schema.Row) error {
			if tr == nil {
				return eng.LoadRows(ctx, tbl, rows)
			}
			return tr.span(loadSpan, func() error { return eng.LoadRows(ctx, tbl, rows) })
		}
		if err := b.setup(ctx, e, load); err != nil {
			e.Close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer e.Close()

	clients := b.clients()
	logs := make([]*clientLog, len(clients))
	for i := range logs {
		logs[i] = &clientLog{}
	}
	if tr != nil {
		tr.singleClient = len(clients) == 1
	}

	runtime.GC()
	warmEnd := time.Now().Add(warmup)
	var start, end time.Time
	var startOnce sync.Once
	var measureStart sync.WaitGroup
	measureStart.Add(len(clients))
	var layers1 layerSnap
	var cpu0 time.Duration
	heap := newHeapSampler()
	var cp checkpoint
	var roundsDone atomic.Int64

	var wg sync.WaitGroup
	for i, c := range clients {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := logs[i]
			do := func(kind opKind, call func() error) error { return l.do(tr, kind, call) }
			for time.Now().Before(warmEnd) {
				c.round(ctx, e, do)
			}
			// Every client starts measuring together, once all have
			// finished their warm-up rounds.
			measureStart.Done()
			measureStart.Wait()
			startOnce.Do(func() {
				if tr != nil {
					layers1 = takeLayerSnap(e)
					tr.reset()
				}
				heap.start()
				cpu0 = processCPU()
				start = time.Now()
			})
			deadline := start.Add(time.Duration(o.seconds) * time.Second)
			l.measuring = true
			for time.Now().Before(deadline) {
				c.round(ctx, e, do)
				l.round++
				if roundsDone.Add(1) == spec.checkpointRounds {
					cp.take(e, logs, l, cpu0, heap)
				}
			}
		}()
	}
	wg.Wait()
	end = time.Now()
	if roundsDone.Load() < spec.checkpointRounds {
		fmt.Fprintf(os.Stderr, "perfbench: only %d of %d rounds ran; CPU, space and heap are taken at the end\n",
			roundsDone.Load(), spec.checkpointRounds)
		cp.take(e, logs, logs[len(logs)-1], cpu0, heap)
	}
	heap.stop()
	var layers2 layerSnap
	if tr != nil {
		layers2 = takeLayerSnap(e)
		tr.stop() // the check's scans are not part of the run
	}

	res := &runResult{metrics: map[string]metric{}}
	var all []sample
	for _, l := range logs {
		res.attempted += l.attempted
		res.failed += l.failed
		all = append(all, l.samples...)
		if l.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed, first: %v\n", l.failed, l.attempted, l.firstErr)
		}
	}
	checkStart := time.Now()
	var liveBytes int64
	res.mismatches, liveBytes = b.check(ctx, e, cp.clientOps)
	fmt.Fprintf(os.Stderr, "perfbench: checked %d operations and the final state in %.1f s\n", res.attempted, time.Since(checkStart).Seconds())
	if len(all) == 0 {
		return nil, fmt.Errorf("no operation completed in the measured phase")
	}
	elapsed := end.Sub(start)
	rounds := roundLatencies(logs)
	p50, p90 := ms(quantileDur(rounds, 0.50)), ms(quantileDur(rounds, 0.90))
	opsPerS := float64(len(all)) / elapsed.Seconds()
	if tr == nil {
		res.put("setup_s", median(setupTimes), "s")
		res.put("round_p50_ms", p50, "ms")
		res.put("cpu_us_per_op", us(cp.cpu)/float64(cp.ops), "us")
		res.put("space_amp", float64(cp.stored)/float64(liveBytes), "ratio")
		res.put("heap_peak_mb", float64(cp.heap)/1e6, "MB")
		return res, nil
	}
	layerMetrics(res, layers0, layers1, layers2, all)
	tr.metrics(res, len(all))
	res.put("trace.round_p50_ms", p50, "ms")
	res.put("trace.round_p90_ms", p90, "ms")
	res.put("trace.ops_per_s", opsPerS, "1/s")
	if err := tr.write(o.out, o.workload, o.seed); err != nil {
		return nil, err
	}
	return res, nil
}

// roundLatencies are the sorted latencies of the measured rounds: per
// client and round, the summed latency of the round's operations.
func roundLatencies(logs []*clientLog) []time.Duration {
	var out []time.Duration
	for _, l := range logs {
		sums := map[int32]time.Duration{}
		for _, s := range l.samples {
			sums[s.round] += s.lat
		}
		for _, d := range sums {
			out = append(out, d)
		}
	}
	sortDur(out)
	return out
}

// heapSampler tracks the peak of the Go heap's live objects by sampling
// runtime/metrics, which does not stop the world.
type heapSampler struct {
	peak  atomic.Uint64
	stopc chan struct{}
	done  chan struct{}
}

func newHeapSampler() *heapSampler {
	return &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
}

func (h *heapSampler) start() {
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
}

func (h *heapSampler) stop() {
	close(h.stopc)
	<-h.done
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileDur is the nearest-rank quantile of sorted durations.
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortDur(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}
