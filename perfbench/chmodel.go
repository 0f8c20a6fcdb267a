package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"proteus/internal/cluster"
	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// chModel is the CH database as plain maps, with the benchmark's own
// evaluation of filters, joins, group-by and aggregates: it shares no code
// with the engine's storage or exec layers.
type chModel struct {
	tables map[schema.TableID]map[schema.RowID][]types.Value
}

func newCHModel() *chModel {
	return &chModel{tables: map[schema.TableID]map[schema.RowID][]types.Value{}}
}

func (m *chModel) table(id schema.TableID) map[schema.RowID][]types.Value {
	t := m.tables[id]
	if t == nil {
		t = map[schema.RowID][]types.Value{}
		m.tables[id] = t
	}
	return t
}

// bytes is the logical size of the live rows: 8 bytes per number or time,
// the length of each string.
func (m *chModel) bytes() int64 {
	var n int64
	for _, t := range m.tables {
		for _, row := range t {
			for _, v := range row {
				if v.K == types.KindString {
					n += int64(len(v.S))
				} else {
					n += 8
				}
			}
		}
	}
	return n
}

// reads returns what the transaction's reads must return: one tuple per
// read, nil for a row that does not exist.
func (m *chModel) reads(t *query.Txn) [][]types.Value {
	var out [][]types.Value
	for _, op := range t.Ops {
		if op.Kind != query.OpRead {
			continue
		}
		row, ok := m.table(op.Table)[op.Row]
		if !ok {
			out = append(out, nil)
			continue
		}
		tuple := make([]types.Value, len(op.Cols))
		for i, c := range op.Cols {
			tuple[i] = row[c]
		}
		out = append(out, tuple)
	}
	return out
}

// apply installs the transaction's writes.
func (m *chModel) apply(t *query.Txn) {
	for _, op := range t.Ops {
		tbl := m.table(op.Table)
		switch op.Kind {
		case query.OpInsert:
			tbl[op.Row] = append([]types.Value(nil), op.Vals...)
		case query.OpUpdate:
			row := append([]types.Value(nil), tbl[op.Row]...)
			for i, c := range op.Cols {
				row[c] = op.Vals[i]
			}
			tbl[op.Row] = row
		case query.OpDelete:
			delete(tbl, op.Row)
		}
	}
}

// eval evaluates a query tree over the model.
func (m *chModel) eval(n query.Node) [][]types.Value {
	var out [][]types.Value
	m.each(n, func(t []types.Value) { out = append(out, append([]types.Value(nil), t...)) })
	return out
}

// each streams the tuples of a query tree to fn, which must not keep the
// slice it is given.
func (m *chModel) each(n query.Node, fn func([]types.Value)) {
	switch n := n.(type) {
	case *query.ScanNode:
		t := make([]types.Value, len(n.Cols))
		for _, row := range m.table(n.Table) {
			if !matches(row, n.Pred) {
				continue
			}
			for i, c := range n.Cols {
				t[i] = row[c]
			}
			fn(t)
		}
	case *query.JoinNode:
		build := map[valueKey][][]types.Value{}
		for _, r := range m.eval(n.Right) {
			k := keyOf(r[n.RightKeyCol])
			build[k] = append(build[k], r)
		}
		var t []types.Value
		m.each(n.Left, func(l []types.Value) {
			for _, r := range build[keyOf(l[n.LeftKeyCol])] {
				t = append(append(t[:0], l...), r...)
				fn(t)
			}
		})
	case *query.AggNode:
		for _, t := range aggregate(m, n) {
			fn(t)
		}
	default:
		panic(fmt.Sprintf("model: unknown query node %T", n))
	}
}

func matches(row []types.Value, pred storage.Pred) bool {
	for _, c := range pred {
		x := compareValues(row[c.Col], c.Val)
		var ok bool
		switch c.Op {
		case storage.CmpEq:
			ok = x == 0
		case storage.CmpNe:
			ok = x != 0
		case storage.CmpLt:
			ok = x < 0
		case storage.CmpLe:
			ok = x <= 0
		case storage.CmpGt:
			ok = x > 0
		case storage.CmpGe:
			ok = x >= 0
		}
		if !ok {
			return false
		}
	}
	return true
}

// compareValues orders values: null first, numbers and times by value,
// strings bytewise.
func compareValues(a, b types.Value) int {
	an, bn := a.K == types.KindNull, b.K == types.KindNull
	switch {
	case an || bn:
		return boolCmp(bn, an)
	case a.K == types.KindString && b.K == types.KindString:
		return strings.Compare(a.S, b.S)
	case a.K == types.KindFloat64 || b.K == types.KindFloat64:
		af, bf := num(a), num(b)
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	case a.K == types.KindString || b.K == types.KindString:
		return boolCmp(a.K == types.KindString, b.K == types.KindString)
	}
	switch {
	case a.I < b.I:
		return -1
	case a.I > b.I:
		return 1
	}
	return 0
}

func boolCmp(a, b bool) int {
	switch {
	case a == b:
		return 0
	case a:
		return 1
	}
	return -1
}

func num(v types.Value) float64 {
	if v.K == types.KindFloat64 {
		return v.F
	}
	return float64(v.I)
}

// valueKey is a hashable form of a join or group key.
type valueKey struct {
	k types.Kind
	i int64
	f float64
	s string
}

func keyOf(v types.Value) valueKey {
	switch v.K {
	case types.KindFloat64:
		return valueKey{k: v.K, f: v.F}
	case types.KindString:
		return valueKey{k: v.K, s: v.S}
	}
	return valueKey{k: v.K, i: v.I}
}

// aggregate groups the child's tuples by the groupBy positions; each
// output tuple is the group's key values followed by its aggregates.
// Without grouping it returns one tuple, also for no input.
func aggregate(m *chModel, n *query.AggNode) [][]types.Value {
	type group struct {
		key        []types.Value
		sums, mins []types.Value
		maxs       []types.Value
		n          int64
	}
	groups := map[string]*group{}
	var order []*group
	var kb []byte
	get := func(t []types.Value) *group {
		kb = kb[:0]
		for _, g := range n.GroupBy {
			k := keyOf(t[g])
			kb = append(kb, byte(k.k))
			kb = strconv.AppendInt(kb, k.i, 10)
			kb = strconv.AppendFloat(kb, k.f, 'g', -1, 64)
			kb = append(kb, k.s...)
			kb = append(kb, 0)
		}
		g := groups[string(kb)]
		if g == nil {
			a := len(n.Aggs)
			g = &group{sums: make([]types.Value, a), mins: make([]types.Value, a), maxs: make([]types.Value, a)}
			for _, i := range n.GroupBy {
				g.key = append(g.key, t[i])
			}
			groups[string(kb)] = g
			order = append(order, g)
		}
		return g
	}
	if len(n.GroupBy) == 0 {
		get(nil)
	}
	m.each(n.Child, func(t []types.Value) {
		g := get(t)
		g.n++
		for i, a := range n.Aggs {
			if a.Func == exec.AggCount {
				continue
			}
			v := t[a.Col]
			g.sums[i] = addValues(g.sums[i], v)
			if g.mins[i].K == types.KindNull || compareValues(v, g.mins[i]) < 0 {
				g.mins[i] = v
			}
			if g.maxs[i].K == types.KindNull || compareValues(v, g.maxs[i]) > 0 {
				g.maxs[i] = v
			}
		}
	})
	out := make([][]types.Value, 0, len(order))
	for _, g := range order {
		t := append([]types.Value(nil), g.key...)
		for i, a := range n.Aggs {
			switch a.Func {
			case exec.AggSum:
				t = append(t, g.sums[i])
			case exec.AggCount:
				t = append(t, types.NewInt64(g.n))
			case exec.AggMin:
				t = append(t, g.mins[i])
			case exec.AggMax:
				t = append(t, g.maxs[i])
			case exec.AggAvg:
				if g.n == 0 {
					t = append(t, types.Null())
				} else {
					t = append(t, types.NewFloat64(num(g.sums[i])/float64(g.n)))
				}
			}
		}
		out = append(out, t)
	}
	return out
}

func addValues(a, b types.Value) types.Value {
	switch {
	case a.K == types.KindNull:
		return b
	case b.K == types.KindNull:
		return a
	case a.K == types.KindFloat64 || b.K == types.KindFloat64:
		return types.NewFloat64(num(a) + num(b))
	}
	return types.NewInt64(a.I + b.I)
}

// floatTolerance is the relative difference allowed between floats, which
// the engine may sum in another order.
const floatTolerance = 1e-9

// diffTuples compares two results as multisets of tuples and describes the
// first difference, or returns "".
func diffTuples(got, want [][]types.Value) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d tuples, want %d", len(got), len(want))
	}
	g, w := sortedTuples(got), sortedTuples(want)
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return fmt.Sprintf("tuple %v, want %v", g[i], w[i])
		}
		for j := range g[i] {
			if !sameValue(g[i][j], w[i][j]) {
				return fmt.Sprintf("tuple %v, want %v", g[i], w[i])
			}
		}
	}
	return ""
}

func sortedTuples(ts [][]types.Value) [][]types.Value {
	s := append([][]types.Value(nil), ts...)
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i], s[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if c := compareValues(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return len(a) < len(b)
	})
	return s
}

func sameValue(a, b types.Value) bool {
	if a.K == types.KindFloat64 || b.K == types.KindFloat64 {
		if (a.K == types.KindNull) != (b.K == types.KindNull) || a.K == types.KindString || b.K == types.KindString {
			return false
		}
		x, y := num(a), num(b)
		return math.Abs(x-y) <= floatTolerance*math.Max(math.Abs(x), math.Abs(y))
	}
	return a.K == b.K && compareValues(a, b) == 0
}

// check replays the generated operations over the model, checking every
// transactional read and query answer the client recorded, then compares
// each table of the engine with the model.
func (b *chBench) check(ctx context.Context, e *cluster.Engine, clientOps int) ([]string, int64) {
	var out []string
	add := func(format string, args ...any) {
		if len(out) < maxMismatches {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	m := b.model()
	gen := newCHGen(b.seed, b.t, b.txnsPerQuery)
	// answers holds the model's answer to each query until the next write.
	answers := map[int][][]types.Value{}
	var live int64
	for i, o := range b.cl.outs {
		if i == clientOps {
			live = m.bytes()
		}
		op := gen.next()
		switch {
		case o.failed:
			// Not acknowledged. A failed write may still have committed,
			// which the final-state comparison then reports.
		case op.txn != nil:
			if d := diffReads(o.rel.Tuples, m.reads(op.txn)); d != "" {
				add("operation %d (transaction): reads: %s", i, d)
			}
			m.apply(op.txn)
			clear(answers)
		default:
			want, ok := answers[op.qn]
			if !ok {
				want = m.eval(op.q.Root)
				answers[op.qn] = want
			}
			if d := diffTuples(o.rel.Tuples, want); d != "" {
				add("operation %d (%s): %s", i, chQueryNames[op.qn], d)
			}
		}
	}
	if clientOps >= len(b.cl.outs) {
		live = m.bytes()
	}
	for i := range chSchema() {
		id := b.tableID(i)
		cols := make([]schema.ColID, len(chSchema()[i].cols))
		for c := range cols {
			cols[c] = schema.ColID(c)
		}
		rel, err := e.ExecuteQuery(ctx, e.NewSession(), &query.Query{Root: &query.ScanNode{Table: id, Cols: cols}})
		if err != nil {
			add("final state of %s: %v", chSchema()[i].name, err)
			continue
		}
		var want [][]types.Value
		for _, row := range m.table(id) {
			want = append(want, row)
		}
		if d := diffTuples(rel.Tuples, want); d != "" {
			add("final state of %s: %s", chSchema()[i].name, d)
		}
	}
	return out, live
}

// diffReads compares a transaction's reads in order.
func diffReads(got, want [][]types.Value) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d reads, want %d", len(got), len(want))
	}
	for i := range got {
		if (got[i] == nil) != (want[i] == nil) || len(got[i]) != len(want[i]) {
			return fmt.Sprintf("read %d = %v, want %v", i, got[i], want[i])
		}
		for j := range got[i] {
			if !sameValue(got[i][j], want[i][j]) {
				return fmt.Sprintf("read %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
	return ""
}
