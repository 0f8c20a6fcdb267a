package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"proteus/internal/cluster"
	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/types"
)

// runRounds sets up a workload on a fresh engine and runs n rounds of each
// of its clients, one after another.
func runRounds(t *testing.T, name string, n int) (bench, *cluster.Engine) {
	t.Helper()
	spec := workloads[name]
	b := spec.new(7)
	e := cluster.New(engineConfig(spec.mode, 7, nil))
	t.Cleanup(e.Close)
	ctx := context.Background()
	if err := b.setup(ctx, e, func(tbl schema.TableID, rows []schema.Row) error { return e.LoadRows(ctx, tbl, rows) }); err != nil {
		t.Fatal(err)
	}
	do := func(_ opKind, call func() error) error { return call() }
	for _, c := range b.clients() {
		for i := 0; i < n; i++ {
			c.round(ctx, e, do)
		}
	}
	return b, e
}

func TestCheckPassesAndCatchesACorruptAnswer(t *testing.T) {
	b, e := runRounds(t, "ch-olap", 1)
	if bad, _ := b.check(context.Background(), e, 0); len(bad) > 0 {
		t.Fatalf("clean run: %v", bad)
	}
	ch := b.(*chBench)
	// Operation 2 is q14, whose answer is (sum, count).
	ans := ch.cl.outs[2].rel.Tuples[0]
	ans[1] = types.NewInt64(ans[1].Int() + 1)
	bad, _ := b.check(context.Background(), e, 0)
	if len(bad) != 1 || !strings.Contains(bad[0], "q14") {
		t.Fatalf("corrupt q14 answer: mismatches %v, want one naming q14", bad)
	}
}

func TestCheckCatchesAStaleTransactionalRead(t *testing.T) {
	b, e := runRounds(t, "ch-htap", 1)
	if bad, _ := b.check(context.Background(), e, 0); len(bad) > 0 {
		t.Fatalf("clean run: %v", bad)
	}
	ch := b.(*chBench)
	for i, o := range ch.cl.outs {
		if len(o.rel.Tuples) > 0 && len(o.rel.Tuples[0]) > 0 && i%(chTxnsPerQuery+1) < chTxnsPerQuery {
			o.rel.Tuples[0][0] = types.NewString("stale")
			break
		}
	}
	if bad, _ := b.check(context.Background(), e, 0); len(bad) != 1 || !strings.Contains(bad[0], "reads") {
		t.Fatalf("corrupt read: mismatches %v, want one", bad)
	}
}

func TestYCSBCheckCatchesAStaleRead(t *testing.T) {
	b, e := runRounds(t, "ycsb-oltp", 20)
	y := b.(*ycsbBench)
	if bad, _ := b.check(context.Background(), e, 0); len(bad) > 0 {
		t.Fatalf("clean run: %v", bad)
	}
	c := y.cls[0]
	txn, keys, field, vals := c.next()
	rel, err := e.ExecuteTxn(context.Background(), c.sess, txn)
	if err != nil {
		t.Fatal(err)
	}
	rel.Tuples[3][0] = types.NewString("stale")
	c.apply(keys, field, vals, rel, nil)
	if len(y.mismatches) != 1 || !strings.Contains(y.mismatches[0], "last acknowledged") {
		t.Fatalf("corrupt read: mismatches %v, want one", y.mismatches)
	}
	// The final state still matches: the writes were acknowledged.
	y.mismatches = nil
	if bad, _ := b.check(context.Background(), e, 0); len(bad) > 0 {
		t.Fatalf("final state: %v", bad)
	}
}

func TestCheckCatchesAWrongFinalState(t *testing.T) {
	b, e := runRounds(t, "ycsb-oltp", 5)
	y := b.(*ycsbBench)
	y.model[0][0] = "changed behind the engine"
	y.checkFinal(exec.Rel{})
	if len(y.mismatches) == 0 {
		t.Fatal("an empty final state passed")
	}
	y.mismatches = nil
	if bad, _ := b.check(context.Background(), e, 0); len(bad) != 1 || !strings.Contains(bad[0], "key 0 field 0") {
		t.Fatalf("mismatches %v, want one for key 0 field 0", bad)
	}
}

// TestMetricNamesAreDeclared runs every workload briefly, untraced and
// traced, and checks that the metrics printed are exactly those declared
// in BENCHMARK.json, with the declared units.
func TestMetricNamesAreDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", names, have)
	}
	for _, w := range have {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			o := options{workload: w, seed: 3, seconds: 1, trace: trace, out: t.TempDir()}
			res, err := runOnce(o, workloads[w], workloads[w].mode)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.mismatches) > 0 || res.failed > 0 {
				t.Errorf("%s: mismatches %v, %d failed", w, res.mismatches, res.failed)
			}
			declared := map[string]string{}
			for _, d := range want {
				declared[d.Name] = d.Unit
			}
			for name, m := range res.metrics {
				unit, ok := declared[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s is not declared", w, trace, name)
				case unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %s, declared %s", w, trace, name, m.Unit, unit)
				}
			}
			for name := range declared {
				if _, ok := res.metrics[name]; !ok {
					t.Errorf("%s trace=%v: declared metric %s is not printed", w, trace, name)
				}
			}
		}
	}
}

// TestInputsDependOnTheSeedAlone generates each workload's loaded rows and
// first operations twice from one seed and once from another.
func TestInputsDependOnTheSeedAlone(t *testing.T) {
	ycsbInputs := func(seed int64) string {
		y := newYCSB(seed).(*ycsbBench)
		y.tbl = &schema.Table{}
		var sb strings.Builder
		fmt.Fprint(&sb, y.model[:50])
		for _, c := range y.cls {
			for i := 0; i < 50; i++ {
				txn, _, _, _ := c.next()
				fmt.Fprint(&sb, txn.Ops)
			}
		}
		return sb.String()
	}
	chInputs := func(seed int64) string {
		var sb strings.Builder
		fmt.Fprint(&sb, chInitial(seed))
		g := newCHGen(seed, chTables{1, 2, 3, 4, 5, 6, 7, 8}, chTxnsPerQuery)
		for i := 0; i < 500; i++ {
			op := g.next()
			if op.txn != nil {
				fmt.Fprint(&sb, op.txn.Ops)
			} else {
				fmt.Fprint(&sb, op.q.Root.String(), op.q.Root.(*query.AggNode).Child)
			}
		}
		return sb.String()
	}
	for name, gen := range map[string]func(int64) string{"ycsb": ycsbInputs, "ch": chInputs} {
		a, b, c := gen(5), gen(5), gen(6)
		if a != b {
			t.Errorf("%s: two generations from seed 5 differ", name)
		}
		if a == c {
			t.Errorf("%s: seeds 5 and 6 give the same inputs", name)
		}
	}
}
