package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// The CH-benCHmark database of ch-olap and ch-htap. The schema, the five
// TPC-C transactions and the eight analytical query shapes follow
// internal/workload/chbench, with two changes that make the inputs depend on
// the seed alone: every generator draws from the seed, and the dates the
// transactions stamp into rows are derived from order numbers instead of
// the time of day.
const (
	chWarehouses       = 2
	chDistrictsPerW    = 5
	chCustomersPerD    = 30
	chItems            = 200
	chLoadedOrdersPerD = 1000
	chMaxOrdersPerD    = 20000
	chMaxOLPerOrder    = 5
	chCrossWarehousPct = 10
	chItemZipfS        = 1.3
	// chTxnsPerQuery is how many transactions ch-htap runs before each
	// query.
	chTxnsPerQuery = 5
	chQueries      = 8
)

// chBaseDate anchors order entry and delivery dates; order o of a district
// is entered o days after it and delivered two days later.
var chBaseDate = time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)

func chDate(days int64) types.Value { return types.NewTime(chBaseDate.AddDate(0, 0, int(days))) }

// chTables are the table identifiers, in creation order.
type chTables struct {
	warehouse, district, customer, item, stock, orders, orderLine, history schema.TableID
}

// chSchema lists the tables: name, columns and row-id bound.
func chSchema() []chTableDef {
	nd := int64(chWarehouses * chDistrictsPerW)
	return []chTableDef{
		{"warehouse", chWarehouses, []schema.Column{
			{Name: "w_id", Kind: types.KindInt64},
			{Name: "w_name", Kind: types.KindString, AvgSize: 10},
			{Name: "w_ytd", Kind: types.KindFloat64},
		}},
		{"district", nd, []schema.Column{
			{Name: "d_id", Kind: types.KindInt64},
			{Name: "d_w_id", Kind: types.KindInt64},
			{Name: "d_name", Kind: types.KindString, AvgSize: 10},
			{Name: "d_ytd", Kind: types.KindFloat64},
			{Name: "d_next_o_id", Kind: types.KindInt64},
		}},
		{"customer", nd * chCustomersPerD, []schema.Column{
			{Name: "c_id", Kind: types.KindInt64},
			{Name: "c_w_id", Kind: types.KindInt64},
			{Name: "c_d_id", Kind: types.KindInt64},
			{Name: "c_name", Kind: types.KindString, AvgSize: 16},
			{Name: "c_balance", Kind: types.KindFloat64},
			{Name: "c_ytd", Kind: types.KindFloat64},
			{Name: "c_payments", Kind: types.KindInt64},
		}},
		{"item", chItems, []schema.Column{
			{Name: "i_id", Kind: types.KindInt64},
			{Name: "i_name", Kind: types.KindString, AvgSize: 14},
			{Name: "i_price", Kind: types.KindFloat64},
			{Name: "i_data", Kind: types.KindString, AvgSize: 26},
		}},
		{"stock", chWarehouses * chItems, []schema.Column{
			{Name: "s_i_id", Kind: types.KindInt64},
			{Name: "s_w_id", Kind: types.KindInt64},
			{Name: "s_quantity", Kind: types.KindFloat64},
			{Name: "s_ytd", Kind: types.KindFloat64},
			{Name: "s_order_cnt", Kind: types.KindInt64},
		}},
		{"orders", nd * chMaxOrdersPerD, []schema.Column{
			{Name: "o_id", Kind: types.KindInt64},
			{Name: "o_d_id", Kind: types.KindInt64},
			{Name: "o_w_id", Kind: types.KindInt64},
			{Name: "o_c_id", Kind: types.KindInt64},
			{Name: "o_entry_d", Kind: types.KindTime},
			{Name: "o_carrier_id", Kind: types.KindInt64},
			{Name: "o_ol_cnt", Kind: types.KindInt64},
		}},
		{"orderline", nd * chMaxOrdersPerD * chMaxOLPerOrder, []schema.Column{
			{Name: "ol_o_id", Kind: types.KindInt64},
			{Name: "ol_number", Kind: types.KindInt64},
			{Name: "ol_i_id", Kind: types.KindInt64},
			{Name: "ol_quantity", Kind: types.KindFloat64},
			{Name: "ol_amount", Kind: types.KindFloat64},
			{Name: "ol_delivery_d", Kind: types.KindTime},
		}},
		{"history", 1 << 40, []schema.Column{
			{Name: "h_c_id", Kind: types.KindInt64},
			{Name: "h_amount", Kind: types.KindFloat64},
			{Name: "h_date", Kind: types.KindTime},
		}},
	}
}

type chTableDef struct {
	name    string
	maxRows int64
	cols    []schema.Column
}

// Row-id composition over the composite TPC-C keys.
func chDistrictRow(wh, d int) schema.RowID { return schema.RowID(wh*chDistrictsPerW + d) }
func chCustomerRow(wh, d, c int) schema.RowID {
	return schema.RowID((wh*chDistrictsPerW+d)*chCustomersPerD + c)
}
func chStockRow(wh, i int) schema.RowID { return schema.RowID(wh*chItems + i) }
func chOrderRow(wh, d int, o int64) schema.RowID {
	return schema.RowID(int64(wh*chDistrictsPerW+d)*chMaxOrdersPerD + o)
}
func chOrderLineRow(orow schema.RowID, l int) schema.RowID {
	return schema.RowID(int64(orow)*chMaxOLPerOrder + int64(l))
}

// chInitial generates the loaded database from the seed, one row list per
// table in chSchema order.
func chInitial(seed int64) [][]schema.Row {
	r := rand.New(rand.NewSource(mix(seed, 100)))
	out := make([][]schema.Row, len(chSchema()))
	i64, f64, str := types.NewInt64, types.NewFloat64, types.NewString
	add := func(t int, id schema.RowID, vals ...types.Value) {
		out[t] = append(out[t], schema.Row{ID: id, Vals: vals})
	}
	for wh := 0; wh < chWarehouses; wh++ {
		add(0, schema.RowID(wh), i64(int64(wh)), str(fmt.Sprintf("wh-%d", wh)), f64(300000))
		for d := 0; d < chDistrictsPerW; d++ {
			add(1, chDistrictRow(wh, d), i64(int64(d)), i64(int64(wh)), str(fmt.Sprintf("d-%d-%d", wh, d)),
				f64(30000), i64(chLoadedOrdersPerD))
			for c := 0; c < chCustomersPerD; c++ {
				id := chCustomerRow(wh, d, c)
				add(2, id, i64(int64(id)), i64(int64(wh)), i64(int64(d)), str(fmt.Sprintf("cust-%d", c)),
					f64(-10), f64(10), i64(1))
			}
		}
	}
	for i := 0; i < chItems; i++ {
		data := fmt.Sprintf("data-%d-%s", i, randString(r, 12))
		if i%10 == 0 {
			data = "PR-" + data // promotional items for q14
		}
		add(3, schema.RowID(i), i64(int64(i)), str(fmt.Sprintf("item-%d", i)),
			f64(1+float64(r.Intn(9999))/100), str(data))
	}
	for wh := 0; wh < chWarehouses; wh++ {
		for i := 0; i < chItems; i++ {
			add(4, chStockRow(wh, i), i64(int64(i)), i64(int64(wh)), f64(float64(10+r.Intn(90))), f64(0), i64(0))
		}
	}
	// Orders with increasing entry dates; the oldest two thirds are
	// delivered.
	for wh := 0; wh < chWarehouses; wh++ {
		for d := 0; d < chDistrictsPerW; d++ {
			for o := int64(0); o < chLoadedOrdersPerD; o++ {
				orow := chOrderRow(wh, d, o)
				nOL := 3 + r.Intn(chMaxOLPerOrder-2)
				carrier := int64(-1)
				if o < chDeliveredAtLoad {
					carrier = int64(1 + r.Intn(10))
				}
				cust := chCustomerRow(wh, d, r.Intn(chCustomersPerD))
				add(5, orow, i64(int64(orow)), i64(int64(d)), i64(int64(wh)), i64(int64(cust)), chDate(o),
					i64(carrier), i64(int64(nOL)))
				for l := 0; l < nOL; l++ {
					delivery := types.NewTime(time.Time{}) // undelivered
					if carrier >= 0 {
						delivery = chDate(o + 2)
					}
					add(6, chOrderLineRow(orow, l), i64(int64(orow)), i64(int64(l)), i64(int64(r.Intn(chItems))),
						f64(float64(1+r.Intn(10))), f64(float64(1+r.Intn(9999))/100), delivery)
				}
			}
		}
	}
	return out
}

const chDeliveredAtLoad = chLoadedOrdersPerD * 2 / 3

// chGen generates the client's operations: the same seed gives the same
// sequence of transactions and queries.
type chGen struct {
	t             chTables
	txnsPerQuery  int
	r             *rand.Rand
	z             *rand.Zipf
	nextOrder     [chWarehouses * chDistrictsPerW]int64
	deliveredUpTo [chWarehouses * chDistrictsPerW]int64
	historySeq    int64
	n             int // operations generated
}

func newCHGen(seed int64, t chTables, txnsPerQuery int) *chGen {
	r := rand.New(rand.NewSource(mix(seed, 101)))
	g := &chGen{t: t, txnsPerQuery: txnsPerQuery, r: r, z: rand.NewZipf(r, chItemZipfS, 1, chItems-1),
		historySeq: chWarehouses * chDistrictsPerW * chCustomersPerD}
	for i := range g.nextOrder {
		g.nextOrder[i] = chLoadedOrdersPerD
		g.deliveredUpTo[i] = chDeliveredAtLoad
	}
	return g
}

// chOp is one generated operation: a transaction, or query number qn.
type chOp struct {
	txn  *query.Txn
	q    *query.Query
	qn   int
	kind opKind
}

// opsPerRound is the length of a round: every query once, each after
// txnsPerQuery transactions.
func (g *chGen) opsPerRound() int { return chQueries * (g.txnsPerQuery + 1) }

func (g *chGen) next() chOp {
	i := g.n % (g.txnsPerQuery + 1)
	g.n++
	if i < g.txnsPerQuery {
		return chOp{txn: g.txn(), kind: opTxn}
	}
	qn := (g.n - 1) / (g.txnsPerQuery + 1) % chQueries
	q, kind := g.query(qn)
	return chOp{q: q, qn: qn, kind: kind}
}

// txn draws one TPC-C transaction with the standard mix: NewOrder 45%,
// Payment 43%, OrderStatus, Delivery and StockLevel 4% each.
func (g *chGen) txn() *query.Txn {
	wh := g.r.Intn(chWarehouses)
	d := g.r.Intn(chDistrictsPerW)
	switch p := g.r.Intn(100); {
	case p < 45:
		return g.newOrder(wh, d)
	case p < 88:
		return g.payment(wh, d)
	case p < 92:
		return g.orderStatus(wh, d)
	case p < 96:
		return g.delivery(wh, d)
	default:
		return g.stockLevel(wh, d)
	}
}

func (g *chGen) newOrder(wh, d int) *query.Txn {
	t, r := g.t, g.r
	di := wh*chDistrictsPerW + d
	o := g.nextOrder[di]
	if o >= chMaxOrdersPerD {
		// The district's row space is full: pay instead.
		return g.payment(wh, d)
	}
	g.nextOrder[di]++
	orow := chOrderRow(wh, d, o)
	cust := chCustomerRow(wh, d, r.Intn(chCustomersPerD))
	nOL := 3 + r.Intn(chMaxOLPerOrder-2)
	ops := []query.Op{
		{Kind: query.OpRead, Table: t.warehouse, Row: schema.RowID(wh), Cols: []schema.ColID{2}},
		{Kind: query.OpRead, Table: t.customer, Row: cust, Cols: []schema.ColID{3, 4}},
		{Kind: query.OpUpdate, Table: t.district, Row: chDistrictRow(wh, d),
			Cols: []schema.ColID{4}, Vals: []types.Value{types.NewInt64(o + 1)}},
		{Kind: query.OpInsert, Table: t.orders, Row: orow, Vals: []types.Value{
			types.NewInt64(int64(orow)), types.NewInt64(int64(d)), types.NewInt64(int64(wh)),
			types.NewInt64(int64(cust)), chDate(o), types.NewInt64(-1), types.NewInt64(int64(nOL)),
		}},
	}
	var seen [chItems]bool
	for l := 0; l < nOL; l++ {
		item := int(g.z.Uint64())
		for seen[item] {
			item = (item + 1) % chItems
		}
		seen[item] = true
		supply := wh
		if r.Intn(100) < chCrossWarehousPct {
			supply = r.Intn(chWarehouses)
		}
		qty := float64(1 + r.Intn(10))
		ops = append(ops,
			query.Op{Kind: query.OpRead, Table: t.item, Row: schema.RowID(item), Cols: []schema.ColID{2}},
			query.Op{Kind: query.OpUpdate, Table: t.stock, Row: chStockRow(supply, item), Cols: []schema.ColID{2, 3, 4},
				Vals: []types.Value{types.NewFloat64(float64(10 + r.Intn(90))), types.NewFloat64(qty), types.NewInt64(1)}},
			query.Op{Kind: query.OpInsert, Table: t.orderLine, Row: chOrderLineRow(orow, l), Vals: []types.Value{
				types.NewInt64(int64(orow)), types.NewInt64(int64(l)), types.NewInt64(int64(item)),
				types.NewFloat64(qty), types.NewFloat64(qty * float64(1+r.Intn(100))), types.NewTime(time.Time{}),
			}})
	}
	return &query.Txn{Ops: ops}
}

func (g *chGen) payment(wh, d int) *query.Txn {
	t, r := g.t, g.r
	cust := chCustomerRow(wh, d, r.Intn(chCustomersPerD))
	amount := float64(1 + r.Intn(5000))
	g.historySeq++
	return &query.Txn{Ops: []query.Op{
		{Kind: query.OpUpdate, Table: t.warehouse, Row: schema.RowID(wh),
			Cols: []schema.ColID{2}, Vals: []types.Value{types.NewFloat64(amount)}},
		{Kind: query.OpUpdate, Table: t.district, Row: chDistrictRow(wh, d),
			Cols: []schema.ColID{3}, Vals: []types.Value{types.NewFloat64(amount)}},
		{Kind: query.OpRead, Table: t.customer, Row: cust, Cols: []schema.ColID{4, 6}},
		{Kind: query.OpUpdate, Table: t.customer, Row: cust,
			Cols: []schema.ColID{4, 5}, Vals: []types.Value{types.NewFloat64(-amount), types.NewFloat64(amount)}},
		{Kind: query.OpInsert, Table: t.history, Row: schema.RowID(g.historySeq),
			Vals: []types.Value{types.NewInt64(int64(cust)), types.NewFloat64(amount), chDate(int64(r.Intn(1000)))}},
	}}
}

func (g *chGen) orderStatus(wh, d int) *query.Txn {
	t, r := g.t, g.r
	orow := chOrderRow(wh, d, g.nextOrder[wh*chDistrictsPerW+d]-1)
	cust := chCustomerRow(wh, d, r.Intn(chCustomersPerD))
	ops := []query.Op{
		{Kind: query.OpRead, Table: t.customer, Row: cust, Cols: []schema.ColID{3, 4}},
		{Kind: query.OpRead, Table: t.orders, Row: orow, Cols: []schema.ColID{4, 5, 6}},
	}
	for l := 0; l < chMaxOLPerOrder; l++ {
		ops = append(ops, query.Op{Kind: query.OpRead, Table: t.orderLine, Row: chOrderLineRow(orow, l),
			Cols: []schema.ColID{2, 3, 4}})
	}
	return &query.Txn{Ops: ops}
}

// delivery delivers the district's oldest undelivered order: its carrier,
// the delivery date of its first three lines and the customer's balance.
func (g *chGen) delivery(wh, d int) *query.Txn {
	t, r := g.t, g.r
	di := wh*chDistrictsPerW + d
	o := g.deliveredUpTo[di]
	if o >= g.nextOrder[di] {
		o = g.nextOrder[di] - 1 // nothing to deliver: refresh the latest order
	} else {
		g.deliveredUpTo[di]++
	}
	orow := chOrderRow(wh, d, o)
	ops := []query.Op{{Kind: query.OpUpdate, Table: t.orders, Row: orow,
		Cols: []schema.ColID{5}, Vals: []types.Value{types.NewInt64(int64(1 + r.Intn(10)))}}}
	for l := 0; l < 3; l++ { // every order has at least three lines
		ops = append(ops, query.Op{Kind: query.OpUpdate, Table: t.orderLine, Row: chOrderLineRow(orow, l),
			Cols: []schema.ColID{5}, Vals: []types.Value{chDate(o + 2)}})
	}
	ops = append(ops, query.Op{Kind: query.OpUpdate, Table: t.customer, Row: chCustomerRow(wh, d, r.Intn(chCustomersPerD)),
		Cols: []schema.ColID{4}, Vals: []types.Value{types.NewFloat64(float64(r.Intn(100)))}})
	return &query.Txn{Ops: ops}
}

func (g *chGen) stockLevel(wh, d int) *query.Txn {
	t, r := g.t, g.r
	last := g.nextOrder[wh*chDistrictsPerW+d] - 1
	var ops []query.Op
	for back := int64(0); back < 5; back++ {
		orow := chOrderRow(wh, d, last-back)
		for l := 0; l < 2; l++ {
			ops = append(ops, query.Op{Kind: query.OpRead, Table: t.orderLine, Row: chOrderLineRow(orow, l),
				Cols: []schema.ColID{2}})
		}
	}
	for i := 0; i < 5; i++ {
		ops = append(ops, query.Op{Kind: query.OpRead, Table: t.stock, Row: chStockRow(wh, r.Intn(chItems)),
			Cols: []schema.ColID{2}})
	}
	return &query.Txn{Ops: ops}
}

// chQueryNames names the queries in the order they run.
var chQueryNames = [chQueries]string{"q1", "q6", "q14", "q4", "q12", "q3", "q7", "q19"}

// query builds analytical query qn of chQueryNames.
func (g *chGen) query(qn int) (*query.Query, opKind) {
	t := g.t
	agg := func(child query.Node, groupBy []int, aggs ...exec.AggSpec) *query.Query {
		return &query.Query{Root: &query.AggNode{Child: child, GroupBy: groupBy, Aggs: aggs}}
	}
	scan := func(tbl schema.TableID, cols []schema.ColID, pred ...storage.Cond) *query.ScanNode {
		return &query.ScanNode{Table: tbl, Cols: cols, Pred: pred}
	}
	join := func(l, r query.Node) *query.JoinNode { return &query.JoinNode{Left: l, Right: r} }
	cond := func(col schema.ColID, op storage.CmpOp, v types.Value) storage.Cond {
		return storage.Cond{Col: col, Op: op, Val: v}
	}
	f64, i64 := types.NewFloat64, types.NewInt64
	switch qn {
	case 0: // q1: pricing summary per line number
		return agg(scan(t.orderLine, []schema.ColID{1, 3, 4}, cond(5, storage.CmpGe, chDate(0))), []int{0},
			exec.AggSpec{Func: exec.AggSum, Col: 1}, exec.AggSpec{Func: exec.AggSum, Col: 2},
			exec.AggSpec{Func: exec.AggAvg, Col: 2}, exec.AggSpec{Func: exec.AggCount}), opScan
	case 1: // q6: revenue in a delivery window with a quantity band
		return agg(scan(t.orderLine, []schema.ColID{4},
			cond(5, storage.CmpGe, chDate(1)), cond(5, storage.CmpLe, chDate(700)),
			cond(3, storage.CmpGe, f64(1)), cond(3, storage.CmpLe, f64(100000))), nil,
			exec.AggSpec{Func: exec.AggSum, Col: 0}), opScan
	case 2: // q14: promotional revenue, orderline ⋈ promotional items
		return agg(join(
			scan(t.orderLine, []schema.ColID{2, 4}, cond(5, storage.CmpGe, chDate(0))),
			scan(t.item, []schema.ColID{0}, cond(3, storage.CmpGe, types.NewString("PR")), cond(3, storage.CmpLt, types.NewString("PS")))),
			nil, exec.AggSpec{Func: exec.AggSum, Col: 1}, exec.AggSpec{Func: exec.AggCount}), opJoin
	case 3: // q4: delivered orders per carrier
		return agg(scan(t.orders, []schema.ColID{5}, cond(4, storage.CmpGe, chDate(0)), cond(5, storage.CmpGe, i64(0))),
			[]int{0}, exec.AggSpec{Func: exec.AggCount}), opScan
	case 4: // q12: lines per carrier, orderline ⋈ orders
		return agg(join(
			scan(t.orderLine, []schema.ColID{0, 3}),
			scan(t.orders, []schema.ColID{0, 5}, cond(5, storage.CmpGe, i64(1)))),
			[]int{3}, exec.AggSpec{Func: exec.AggCount}, exec.AggSpec{Func: exec.AggSum, Col: 1}), opJoin
	case 5: // q3: undelivered lines per customer, orders ⋈ customer
		return agg(join(
			scan(t.orders, []schema.ColID{3, 6}, cond(5, storage.CmpLt, i64(0))),
			scan(t.customer, []schema.ColID{0})),
			[]int{0}, exec.AggSpec{Func: exec.AggSum, Col: 1}), opJoin
	case 6: // q7: orderline ⋈ item ⋈ stock
		return agg(join(
			join(scan(t.orderLine, []schema.ColID{2, 4}), scan(t.item, []schema.ColID{0, 2})),
			scan(t.stock, []schema.ColID{0, 2})),
			nil, exec.AggSpec{Func: exec.AggSum, Col: 1}, exec.AggSpec{Func: exec.AggCount}), opJoin
	default: // q19: orderline ⋈ items in a price band, with a quantity band
		// The band is fixed: the engine's plan cache keys plans by a
		// fingerprint without predicate constants, so a q19 with another
		// band would be answered with the first one's plan (CHANGES.md).
		lo := 20.0
		return agg(join(
			scan(t.orderLine, []schema.ColID{2, 4}, cond(3, storage.CmpGe, f64(1)), cond(3, storage.CmpLe, f64(10))),
			scan(t.item, []schema.ColID{0}, cond(2, storage.CmpGe, f64(lo)), cond(2, storage.CmpLe, f64(lo+40)))),
			nil, exec.AggSpec{Func: exec.AggSum, Col: 1}), opJoin
	}
}

// chBench is the ch-olap (no transactions) or ch-htap workload: one client
// cycling through the queries, with txnsPerQuery transactions before each.
// The client records every output; check replays the same generated
// operations over the model afterwards, so the model is not in memory
// while the engine is measured.
type chBench struct {
	seed         int64
	txnsPerQuery int
	t            chTables
	cl           *chClient
}

func newCH(seed int64, txnsPerQuery int) bench {
	return &chBench{seed: seed, txnsPerQuery: txnsPerQuery}
}

func (b *chBench) setup(ctx context.Context, e *cluster.Engine, load loadFunc) error {
	// Tables keyed by warehouse get one partition per warehouse, placed at
	// the warehouse's home site; the read-only item table is replicated to
	// every site in the static modes.
	whSite := func(p int) simnet.SiteID { return simnet.SiteID(p * len(e.Sites) / chWarehouses % len(e.Sites)) }
	var ids []schema.TableID
	for _, def := range chSchema() {
		spec := cluster.TableSpec{Name: def.name, Cols: def.cols, MaxRows: schema.RowID(def.maxRows),
			Partitions: chWarehouses, PlaceAt: whSite}
		if def.name == "item" {
			spec = cluster.TableSpec{Name: def.name, Cols: def.cols, MaxRows: schema.RowID(def.maxRows),
				Partitions: 1, ReplicateAll: e.Mode() != cluster.ModeProteus}
		}
		tbl, err := e.CreateTable(spec)
		if err != nil {
			return err
		}
		ids = append(ids, tbl.ID)
	}
	b.t = chTables{ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6], ids[7]}
	for i, rows := range chInitial(b.seed) {
		if err := load(ids[i], rows); err != nil {
			return err
		}
	}
	b.cl = &chClient{gen: newCHGen(b.seed, b.t, b.txnsPerQuery)}
	return nil
}

func (b *chBench) clients() []client { return []client{b.cl} }

// chOutput is what one operation returned.
type chOutput struct {
	rel    exec.Rel
	failed bool
}

// chClient is the single closed-loop client.
type chClient struct {
	gen  *chGen
	sess *cluster.Session
	outs []chOutput
}

// round runs every query once, each after txnsPerQuery transactions.
func (c *chClient) round(ctx context.Context, e *cluster.Engine, do doFunc) {
	if c.sess == nil {
		c.sess = e.NewSession()
	}
	for i := 0; i < c.gen.opsPerRound(); i++ {
		op := c.gen.next()
		var rel exec.Rel
		err := do(op.kind, func() error {
			var err error
			if op.txn != nil {
				rel, err = e.ExecuteTxn(ctx, c.sess, op.txn)
			} else {
				rel, err = e.ExecuteQuery(ctx, c.sess, op.q)
			}
			return err
		})
		c.outs = append(c.outs, chOutput{rel: rel, failed: err != nil})
	}
}

// model rebuilds the loaded database as a model, apart from the engine.
func (b *chBench) model() *chModel {
	m := newCHModel()
	for i, rows := range chInitial(b.seed) {
		tbl := m.table(b.tableID(i))
		for _, r := range rows {
			tbl[r.ID] = r.Vals
		}
	}
	return m
}

func (b *chBench) tableID(i int) schema.TableID {
	return [...]schema.TableID{b.t.warehouse, b.t.district, b.t.customer, b.t.item, b.t.stock,
		b.t.orders, b.t.orderLine, b.t.history}[i]
}
