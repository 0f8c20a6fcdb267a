package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/vclock"
)

// waitCallers are the layers whose modelled waits the traced run reports.
var waitCallers = []string{"simnet", "disksim", "faults", "cluster"}

// span is one recorded interval: an operation or load call made by the
// benchmark, or a clock wait made inside the engine.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
	Asked  int64  `json:"asked_us,omitempty"`
	wait   bool
}

// tracer keeps the traced run's spans in memory and writes them out when
// the run ends.
type tracer struct {
	clk   *recClock
	epoch time.Time
	// singleClient links waits to the operation in flight: with one client
	// the operation open when a wait starts is the one that caused it.
	singleClient bool
	cur          atomic.Int64
	nextID       atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.clk = &recClock{t: t}
	return t
}

func (t *tracer) clock() *recClock {
	if t == nil {
		return nil
	}
	return t.clk
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Microseconds() }

// beginOp opens an operation's span; endOp records it.
func (t *tracer) beginOp(kind opKind) span {
	s := span{ID: t.nextID.Add(1), Name: kind.String(), Start: t.now()}
	if t.singleClient {
		t.cur.Store(s.ID)
	}
	return s
}

func (t *tracer) endOp(s span) {
	if t.singleClient {
		t.cur.Store(0)
	}
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// span records fn as one span named name.
func (t *tracer) span(name string, fn func() error) error {
	id := t.nextID.Add(1)
	s := span{ID: id, Name: name, Start: t.now()}
	err := fn()
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return err
}

func (t *tracer) wait(name string, parent int64, start, end time.Time, asked time.Duration) {
	s := span{
		ID: t.nextID.Add(1), Parent: parent, Name: name, wait: true,
		Start: start.Sub(t.epoch).Microseconds(), End: end.Sub(t.epoch).Microseconds(),
		Asked: asked.Microseconds(),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the warm-up's spans and the set-up's waits, keeping the
// load spans and what the measured phase records next.
func (t *tracer) reset() {
	t.mu.Lock()
	kept := t.spans[:0]
	for _, s := range t.spans {
		if s.Name == loadSpan {
			kept = append(kept, s)
		}
	}
	t.spans = kept
	t.mu.Unlock()
}

// loadSpan names the spans around LoadRows calls.
const loadSpan = "load"

// stop detaches the clock so late background waits are not recorded.
func (t *tracer) stop() { t.clk.off.Store(true) }

// metrics derives the wait metrics per operation from the spans: for each
// calling layer the number of waits, the time asked for and the time slept;
// and, with one client, the part of each operation covered by its waits.
func (t *tracer) metrics(res *runResult, ops int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type agg struct {
		n            int
		asked, slept int64
	}
	by := map[string]*agg{}
	children := map[int64][]span{}
	var opSpans []span
	for _, s := range t.spans {
		if s.Name == loadSpan {
			continue
		}
		if !s.wait {
			opSpans = append(opSpans, s)
			continue
		}
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.asked += s.Asked
		a.slept += s.End - s.Start
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	n := float64(ops)
	for _, c := range waitCallers {
		a := by[c]
		if a == nil {
			a = &agg{}
		}
		res.put("vclock."+c+".waits_per_op", float64(a.n)/n, "count")
		res.put("vclock."+c+".asked_us_per_op", float64(a.asked)/n, "us")
		res.put("vclock."+c+".slept_us_per_op", float64(a.slept)/n, "us")
	}
	var total, covered int64
	if t.singleClient {
		for _, op := range opSpans {
			total += op.End - op.Start
			covered += coveredBy(children[op.ID], op.Start, op.End)
		}
	}
	res.put("trace.op_wait_us_per_op", float64(covered)/n, "us")
	res.put("trace.op_self_us_per_op", float64(total-covered)/n, "us")
	res.put("trace.spans", float64(len(t.spans)), "count")
}

// coveredBy is the length of the union of the spans' intervals, clipped to
// [lo, hi].
func coveredBy(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a >= b {
			continue
		}
		if a > curE {
			total += curE - curS
			curS, curE = a, b
		} else if b > curE {
			curE = b
		}
	}
	return total + curE - curS
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recClock is the traced run's clock: the wall clock, with every Sleep
// recorded as a span named after the package that called it.
type recClock struct {
	vclock.Wall
	t   *tracer
	off atomic.Bool
}

// Sleep implements vclock.Clock.
func (c *recClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	parent, start := c.t.cur.Load(), time.Now()
	time.Sleep(d)
	if !c.off.Load() {
		c.t.wait(callerPackage(), parent, start, time.Now(), d)
	}
}

// callerPackage names the package of the first caller outside vclock and
// this benchmark: "simnet" for proteus/internal/simnet.
func callerPackage() string {
	var pcs [8]uintptr
	n := runtime.Callers(3, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		fn := f.Function
		if slash := strings.LastIndex(fn, "/"); slash >= 0 {
			fn = fn[slash+1:]
		}
		pkg, _, _ := strings.Cut(fn, ".")
		if pkg != "vclock" && pkg != "main" {
			return pkg
		}
		if !more {
			return "unknown"
		}
	}
}
