package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"proteus/internal/cluster"
	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/types"
)

// The ycsb-oltp inputs: a usertable of ycsbRows keys with ycsbFields string
// fields of ycsbFieldSize bytes, in ycsbPartitions contiguous ranges striped
// over the sites; ycsbClients clients, each issuing 10-key read-modify-write
// transactions over zipf-skewed keys on one of the fields it owns.
const (
	ycsbRows       = 20000
	ycsbFields     = 10
	ycsbFieldSize  = 16
	ycsbZipfS      = 1.2
	ycsbKeysPerTxn = 10
	ycsbPartitions = 8
	ycsbClients    = 2
)

// ycsbBench is the ycsb-oltp workload. Each client owns ycsbFields /
// ycsbClients fields, so every (key, field) pair has one writer while the
// transactions still contend on rows and partitions. The model is the
// loaded values with every acknowledged write applied; each client checks
// every read it makes against it.
type ycsbBench struct {
	seed int64
	tbl  *schema.Table
	// model[key][field] is the last acknowledged value. A client writes
	// only its own fields, so clients never touch the same element.
	model [][]string
	// unknown marks pairs whose last write failed: it may or may not have
	// committed, so the next read is accepted and adopted.
	unknown []map[int]bool

	mu         sync.Mutex
	mismatches []string
	cls        []*ycsbClient
}

func newYCSB(seed int64) bench {
	b := &ycsbBench{seed: seed, model: ycsbInitial(seed)}
	for c := 0; c < ycsbClients; c++ {
		r := rand.New(rand.NewSource(mix(seed, int64(c+1))))
		cl := &ycsbClient{b: b, id: c, r: r, z: rand.NewZipf(r, ycsbZipfS, 1, ycsbRows-1)}
		per := ycsbFields / ycsbClients
		for f := c * per; f < (c+1)*per; f++ {
			cl.fields = append(cl.fields, f)
		}
		b.cls = append(b.cls, cl)
		b.unknown = append(b.unknown, map[int]bool{})
	}
	return b
}

// mix derives an independent generator seed from the run's seed.
func mix(seed, stream int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x >> 1)
}

// ycsbInitial generates the loaded field values from the seed.
func ycsbInitial(seed int64) [][]string {
	r := rand.New(rand.NewSource(mix(seed, 0)))
	rows := make([][]string, ycsbRows)
	for k := range rows {
		fields := make([]string, ycsbFields)
		for f := range fields {
			fields[f] = randString(r, ycsbFieldSize)
		}
		rows[k] = fields
	}
	return rows
}

const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

func randString(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

func (b *ycsbBench) setup(ctx context.Context, e *cluster.Engine, load loadFunc) error {
	cols := []schema.Column{{Name: "ykey", Kind: types.KindInt64}}
	for f := 0; f < ycsbFields; f++ {
		cols = append(cols, schema.Column{Name: fmt.Sprintf("field%d", f), Kind: types.KindString, AvgSize: ycsbFieldSize})
	}
	tbl, err := e.CreateTable(cluster.TableSpec{
		Name: "usertable", Cols: cols, MaxRows: ycsbRows, Partitions: ycsbPartitions,
		PlaceAt: func(p int) simnet.SiteID {
			return simnet.SiteID(p * len(e.Sites) / ycsbPartitions % len(e.Sites))
		},
	})
	if err != nil {
		return err
	}
	b.tbl = tbl
	rows := make([]schema.Row, ycsbRows)
	for k, fields := range b.model {
		vals := make([]types.Value, 0, ycsbFields+1)
		vals = append(vals, types.NewInt64(int64(k)))
		for _, v := range fields {
			vals = append(vals, types.NewString(v))
		}
		rows[k] = schema.Row{ID: schema.RowID(k), Vals: vals}
	}
	return load(tbl.ID, rows)
}

func (b *ycsbBench) clients() []client {
	out := make([]client, len(b.cls))
	for i, c := range b.cls {
		out[i] = c
	}
	return out
}

func (b *ycsbBench) mismatch(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.mismatches) < maxMismatches {
		b.mismatches = append(b.mismatches, fmt.Sprintf(format, args...))
	}
}

// maxMismatches caps the mismatches a run reports.
const maxMismatches = 20

// check compares every row of the final table with the model; the reads
// were checked as they returned. The live rows' size never changes.
func (b *ycsbBench) check(ctx context.Context, e *cluster.Engine, _ int) ([]string, int64) {
	live := int64(ycsbRows) * (8 + ycsbFields*ycsbFieldSize)
	cols := make([]schema.ColID, ycsbFields+1)
	for i := range cols {
		cols[i] = schema.ColID(i)
	}
	rel, err := e.ExecuteQuery(ctx, e.NewSession(), &query.Query{Root: &query.ScanNode{Table: b.tbl.ID, Cols: cols}})
	if err != nil {
		b.mismatch("final scan: %v", err)
		return b.mismatches, live
	}
	b.checkFinal(rel)
	return b.mismatches, live
}

func (b *ycsbBench) checkFinal(rel exec.Rel) {
	if len(rel.Tuples) != ycsbRows {
		b.mismatch("final state: %d rows, want %d", len(rel.Tuples), ycsbRows)
	}
	seen := make([]bool, ycsbRows)
	for _, t := range rel.Tuples {
		k := int(t[0].Int())
		if k < 0 || k >= ycsbRows || seen[k] {
			b.mismatch("final state: unexpected key %d", k)
			continue
		}
		seen[k] = true
		for f := 0; f < ycsbFields; f++ {
			owner := f / (ycsbFields / ycsbClients)
			if got := t[1+f].Str(); got != b.model[k][f] && !b.unknown[owner][k*ycsbFields+f] {
				b.mismatch("final state: key %d field %d = %q, model %q", k, f, got, b.model[k][f])
			}
		}
	}
}

// ycsbClient is one closed-loop client with its own session.
type ycsbClient struct {
	b      *ycsbBench
	id     int
	r      *rand.Rand
	z      *rand.Zipf
	fields []int
	sess   *cluster.Session
}

// round runs one read-modify-write transaction and checks its reads.
func (c *ycsbClient) round(ctx context.Context, e *cluster.Engine, do doFunc) {
	if c.sess == nil {
		c.sess = e.NewSession()
	}
	txn, keys, field, vals := c.next()
	var rel exec.Rel
	err := do(opTxn, func() error {
		var err error
		rel, err = e.ExecuteTxn(ctx, c.sess, txn)
		return err
	})
	c.apply(keys, field, vals, rel, err)
}

// next draws the client's next transaction from its generator.
func (c *ycsbClient) next() (*query.Txn, []int, int, []string) {
	b := c.b
	field := c.fields[c.r.Intn(len(c.fields))]
	keys := make([]int, 0, ycsbKeysPerTxn)
	vals := make([]string, 0, ycsbKeysPerTxn)
	ops := make([]query.Op, 0, 2*ycsbKeysPerTxn)
	col := []schema.ColID{schema.ColID(1 + field)}
	for len(keys) < ycsbKeysPerTxn {
		k := int(c.z.Uint64())
		if contains(keys, k) {
			continue
		}
		v := randString(c.r, ycsbFieldSize)
		keys, vals = append(keys, k), append(vals, v)
		ops = append(ops,
			query.Op{Kind: query.OpRead, Table: b.tbl.ID, Row: schema.RowID(k), Cols: col},
			query.Op{Kind: query.OpUpdate, Table: b.tbl.ID, Row: schema.RowID(k), Cols: col, Vals: []types.Value{types.NewString(v)}})
	}
	return &query.Txn{Ops: ops}, keys, field, vals
}

// apply checks a transaction's reads against the model and, once it is
// acknowledged, applies its writes.
func (c *ycsbClient) apply(keys []int, field int, vals []string, rel exec.Rel, err error) {
	b, unknown := c.b, c.b.unknown[c.id]
	if err != nil {
		for _, k := range keys {
			unknown[k*ycsbFields+field] = true
		}
		return
	}
	if len(rel.Tuples) != len(keys) {
		b.mismatch("client %d: %d reads returned, want %d", c.id, len(rel.Tuples), len(keys))
		return
	}
	for i, k := range keys {
		t := rel.Tuples[i]
		switch {
		case len(t) != 1:
			b.mismatch("client %d: read of key %d field %d returned %v", c.id, k, field, t)
		case unknown[k*ycsbFields+field]:
			delete(unknown, k*ycsbFields+field)
		case t[0].Str() != b.model[k][field]:
			b.mismatch("client %d: read of key %d field %d = %q, last acknowledged %q", c.id, k, field, t[0].Str(), b.model[k][field])
		}
		b.model[k][field] = vals[i]
	}
}

func contains(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
