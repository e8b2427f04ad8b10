package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// Oracles. The generator holds its own copy of the data morseld serves
// (TPC-H from the same deterministic generator and seed, the demo table
// from the same xorshift stream) and computes every expected reply
// without going through the engine under test.

// floatTol is the relative tolerance for float cells: parallel
// aggregation sums in a different order on every run.
const floatTol = 1e-6

func numEq(got any, want float64) bool {
	g, ok := got.(float64)
	return ok && math.Abs(g-want) <= floatTol*math.Max(1, math.Abs(want))
}

// intEq is exact: JSON numbers decode to float64, which holds every
// integer the workloads produce (all far below 2^53).
func intEq(got any, want int64) bool {
	g, ok := got.(float64)
	return ok && g == float64(want)
}

func strEq(got any, want string) bool {
	g, ok := got.(string)
	return ok && g == want
}

// tpchDataSeed is the seed morseld generates TPC-H with (cmd/morseld
// hard-codes it); the benchmark's --seed only orders statements and
// draws parameters.
const tpchDataSeed = 42

func generateTPCH(sf float64) *tpch.DB {
	return tpch.Generate(tpch.Config{SF: sf, Partitions: 32, Sockets: 4, Seed: tpchDataSeed})
}

func tpchTables(db *tpch.DB) []*storage.Table {
	return []*storage.Table{db.Region, db.Nation, db.Supplier, db.Customer, db.Part, db.PartSupp, db.Orders, db.Lineitem}
}

// tpchExpect is the reference result of one TPC-H query, in the column
// layout of the hand-built plan (which is the layout the reference
// implementations emit).
type tpchExpect struct {
	cols  []engine.Reg
	rows  [][]engine.Val
	alias map[string]string // SQL output column -> reference column, where they differ
}

// refAliases: the SQL rendition of Q18 exposes c_custkey where the
// reference carries its join-equal twin.
var refAliases = map[int]map[string]string{18: {"c_custkey": "o_custkey"}}

func newTPCHOracle(db *tpch.DB, sf float64, nums []int) map[int]*tpchExpect {
	ref := db.Ref()
	out := make(map[int]*tpchExpect, len(nums))
	for _, n := range nums {
		out[n] = &tpchExpect{
			cols:  tpch.QueryPlan(n, db).OutputSchema(),
			rows:  ref.RefQuery(n, sf),
			alias: refAliases[n],
		}
	}
	return out
}

// check matches the reply's rows against the reference rows as
// multisets: each reply row must pair with a distinct reference row equal
// in every returned column.
func (e *tpchExpect) check(q *queryReply) error {
	if len(q.Rows) != len(e.rows) {
		return fmt.Errorf("got %d rows, reference has %d", len(q.Rows), len(e.rows))
	}
	idx := make([]int, len(q.Columns))
	for i, name := range q.Columns {
		if a, ok := e.alias[name]; ok {
			name = a
		}
		idx[i] = -1
		for j, r := range e.cols {
			if r.Name == name {
				idx[i] = j
			}
		}
		if idx[i] < 0 {
			return fmt.Errorf("reference has no column %q", name)
		}
	}
	used := make([]bool, len(e.rows))
	for ri, got := range q.Rows {
		if len(got) != len(idx) {
			return fmt.Errorf("row %d has %d cells, want %d", ri, len(got), len(idx))
		}
		found := false
		for wi, want := range e.rows {
			if used[wi] || !e.rowEq(got, want, idx) {
				continue
			}
			used[wi], found = true, true
			break
		}
		if !found {
			return fmt.Errorf("row %d %v matches no reference row", ri, got)
		}
	}
	return nil
}

func (e *tpchExpect) rowEq(got []any, want []engine.Val, idx []int) bool {
	for i, j := range idx {
		var ok bool
		switch e.cols[j].Type {
		case engine.TInt:
			ok = intEq(got[i], want[j].I)
		case engine.TFloat:
			ok = numEq(got[i], want[j].F)
		default:
			ok = strEq(got[i], want[j].S)
		}
		if !ok {
			return false
		}
	}
	return true
}

// shortOracle answers the five serve_short statement kinds from plain
// loops over the generated columns.
type shortOracle struct {
	supp       map[int64]pointRow
	cust       map[int64]pointRow
	suppNation []int64
	suppBal    []float64
	nationName map[int64]string
	topk       map[topkKey][]custBal // sorted by balance desc, key asc
	orders     map[int64]orderAgg
	segments   []string
}

type pointRow struct {
	name   string
	nation int64
	bal    float64
}

type topkKey struct {
	nation  int64
	segment string
}

type custBal struct {
	key int64
	bal float64
}

type orderAgg struct {
	n     int64
	total float64
}

func newShortOracle(db *tpch.DB) *shortOracle {
	o := &shortOracle{
		supp:       make(map[int64]pointRow),
		cust:       make(map[int64]pointRow),
		nationName: make(map[int64]string),
		topk:       make(map[topkKey][]custBal),
		orders:     make(map[int64]orderAgg),
	}
	t := db.Nation
	for _, p := range t.Parts {
		for i, k := range p.Cols[t.Col("n_nationkey")].Ints {
			o.nationName[k] = p.Cols[t.Col("n_name")].Strs[i]
		}
	}
	t = db.Supplier
	for _, p := range t.Parts {
		names, nats, bals := p.Cols[t.Col("s_name")].Strs, p.Cols[t.Col("s_nationkey")].Ints, p.Cols[t.Col("s_acctbal")].Flts
		for i, k := range p.Cols[t.Col("s_suppkey")].Ints {
			o.supp[k] = pointRow{names[i], nats[i], bals[i]}
			o.suppNation = append(o.suppNation, nats[i])
			o.suppBal = append(o.suppBal, bals[i])
		}
	}
	t = db.Customer
	seen := make(map[string]bool)
	for _, p := range t.Parts {
		names, nats, bals := p.Cols[t.Col("c_name")].Strs, p.Cols[t.Col("c_nationkey")].Ints, p.Cols[t.Col("c_acctbal")].Flts
		segs := p.Cols[t.Col("c_mktsegment")].Strs
		for i, k := range p.Cols[t.Col("c_custkey")].Ints {
			o.cust[k] = pointRow{names[i], nats[i], bals[i]}
			tk := topkKey{nats[i], segs[i]}
			o.topk[tk] = append(o.topk[tk], custBal{k, bals[i]})
			if !seen[segs[i]] {
				seen[segs[i]] = true
				o.segments = append(o.segments, segs[i])
			}
		}
	}
	sort.Strings(o.segments)
	for _, l := range o.topk {
		sort.Slice(l, func(a, b int) bool {
			if l[a].bal != l[b].bal {
				return l[a].bal > l[b].bal
			}
			return l[a].key < l[b].key
		})
	}
	t = db.Orders
	for _, p := range t.Parts {
		totals := p.Cols[t.Col("o_totalprice")].Flts
		for i, k := range p.Cols[t.Col("o_custkey")].Ints {
			a := o.orders[k]
			a.n++
			a.total += totals[i]
			o.orders[k] = a
		}
	}
	return o
}

func wantRows(q *queryReply, rows, cells int) error {
	if len(q.Rows) != rows {
		return fmt.Errorf("got %d rows, want %d", len(q.Rows), rows)
	}
	for i, r := range q.Rows {
		if len(r) != cells {
			return fmt.Errorf("row %d has %d cells, want %d", i, len(r), cells)
		}
	}
	return nil
}

// checkPoint verifies a (name, nationkey, acctbal) point lookup.
func checkPoint(q *queryReply, want pointRow) error {
	if err := wantRows(q, 1, 3); err != nil {
		return err
	}
	r := q.Rows[0]
	if !strEq(r[0], want.name) || !intEq(r[1], want.nation) || !numEq(r[2], want.bal) {
		return fmt.Errorf("got %v, want %v", r, want)
	}
	return nil
}

// checkRollup verifies supplier-by-nation counts and balance sums above
// a balance threshold, ordered by nation name.
func (o *shortOracle) checkRollup(q *queryReply, threshold float64) error {
	type agg struct {
		n   int64
		bal float64
	}
	by := make(map[string]*agg)
	for i, b := range o.suppBal {
		if b > threshold {
			name := o.nationName[o.suppNation[i]]
			if by[name] == nil {
				by[name] = new(agg)
			}
			by[name].n++
			by[name].bal += b
		}
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	if err := wantRows(q, len(names), 3); err != nil {
		return err
	}
	for i, n := range names {
		r := q.Rows[i]
		if !strEq(r[0], n) || !intEq(r[1], by[n].n) || !numEq(r[2], by[n].bal) {
			return fmt.Errorf("row %d: got %v, want [%s %d %g]", i, r, n, by[n].n, by[n].bal)
		}
	}
	return nil
}

// checkTopK verifies the ten richest customers of one nation and market
// segment, in order.
func (o *shortOracle) checkTopK(q *queryReply, k topkKey) error {
	want := o.topk[k]
	if len(want) > 10 {
		want = want[:10]
	}
	if err := wantRows(q, len(want), 2); err != nil {
		return err
	}
	for i, w := range want {
		if r := q.Rows[i]; !intEq(r[0], w.key) || !numEq(r[1], w.bal) {
			return fmt.Errorf("row %d: got %v, want %v", i, r, w)
		}
	}
	return nil
}

// checkCountSum verifies a one-row (count, sum) reply.
func checkCountSum(q *queryReply, n int64, total float64) error {
	if err := wantRows(q, 1, 2); err != nil {
		return err
	}
	if r := q.Rows[0]; !intEq(r[0], n) || !numEq(r[1], total) {
		return fmt.Errorf("got %v, want [%d %g]", r, n, total)
	}
	return nil
}

// Demo-table dimensions, as cmd/morseld's loadDemo draws them.
const (
	demoCustomers = 10_000
	demoKinds     = 11
	demoDays      = 365
	batchRows     = 400 // rows per /append batch
)

// kindDay aggregates orders rows per (kind, day).
type kindDay [demoKinds][demoDays]struct {
	n   int64
	sum float64
}

// ingestRow is the part of an appended row the read oracles depend on.
type ingestRow struct {
	kind   uint8
	day    uint16
	amount int32 // integer-valued, so sums of appended rows are exact
}

// ingestOracle tracks what the orders table must hold at every
// data-version: the base rows, plus the first v appended batches. All
// batches of a run are generated up front from the seed; reads are
// checked against the version their reply says they were pinned to.
type ingestOracle struct {
	baseRows int64
	bodies   [][]byte      // pre-encoded /append bodies, one per batch
	rows     [][]ingestRow // the same batches, for the oracle

	// issued counts batches handed to the writer; a read can never be
	// pinned beyond it. sealed counts batches a restart folded into the
	// base, after which the daemon's version counter starts over.
	issued atomic.Int64
	sealed int64

	// The reader's running aggregate: base + batches[:applied]. Only
	// the single reader goroutine touches it.
	agg     kindDay
	applied int64
}

// newIngestOracle regenerates the demo orders table's aggregates from
// the same xorshift stream cmd/morseld's loadDemo uses and prepares
// nBatches append batches from the seed.
func newIngestOracle(orders int, nBatches int, seed int64) *ingestOracle {
	o := &ingestOracle{baseRows: int64(orders)}
	x := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	for i := 0; i < orders; i++ {
		_ = next(demoCustomers)
		kind := next(demoKinds)
		amount := float64(next(1_000_000)) / 100
		day := next(demoDays)
		o.agg[kind][day].n++
		o.agg[kind][day].sum += amount
	}
	rng := rand.New(rand.NewSource(seed))
	id := int64(10_000_000)
	for b := 0; b < nBatches; b++ {
		rows := make([]ingestRow, batchRows)
		body := []byte(`{"table":"orders","rows":[`)
		for i := range rows {
			r := ingestRow{kind: uint8(rng.Intn(demoKinds)), day: uint16(rng.Intn(demoDays)), amount: int32(1 + rng.Intn(9999))}
			rows[i] = r
			if i > 0 {
				body = append(body, ',')
			}
			body = append(body, '[')
			body = strconv.AppendInt(body, id, 10)
			body = append(body, ',')
			body = strconv.AppendInt(body, int64(rng.Intn(demoCustomers)), 10)
			body = append(body, ',')
			body = strconv.AppendInt(body, int64(r.kind), 10)
			body = append(body, ',')
			body = strconv.AppendInt(body, int64(r.amount), 10)
			body = append(body, ',')
			body = strconv.AppendInt(body, int64(r.day), 10)
			body = append(body, ']')
			id++
		}
		o.bodies = append(o.bodies, append(body, "]}"...))
		o.rows = append(o.rows, rows)
	}
	return o
}

// advance moves the reader's aggregate to the logical version a reply
// was pinned to. A single reader's pins never move backwards, and never
// pass the batches issued so far.
func (o *ingestOracle) advance(q *queryReply) error {
	v := o.sealed + int64(q.Versions["orders"])
	if v < o.applied {
		return fmt.Errorf("pinned version %d is older than the %d a previous read saw", v, o.applied)
	}
	if v > o.issued.Load() {
		return fmt.Errorf("pinned version %d, but only %d batches were sent", v, o.issued.Load())
	}
	for ; o.applied < v; o.applied++ {
		for _, r := range o.rows[o.applied] {
			o.agg[r.kind][r.day].n++
			o.agg[r.kind][r.day].sum += float64(r.amount)
		}
	}
	return nil
}

// checkCount verifies COUNT(*), SUM(amount) over the whole table at the
// reply's pinned version: the count must be exactly base + version x
// batch size.
func (o *ingestOracle) checkCount(q *queryReply) error {
	if err := o.advance(q); err != nil {
		return err
	}
	var n int64
	var sum float64
	for k := range o.agg {
		for d := range o.agg[k] {
			n += o.agg[k][d].n
			sum += o.agg[k][d].sum
		}
	}
	if want := o.baseRows + o.applied*batchRows; n != want {
		return fmt.Errorf("oracle bookkeeping: %d rows, want %d", n, want)
	}
	return checkCountSum(q, n, sum)
}

// checkRollup verifies the per-kind rollup of rows with day < dayBelow at
// the reply's pinned version.
func (o *ingestOracle) checkRollup(q *queryReply, dayBelow int) error {
	if err := o.advance(q); err != nil {
		return err
	}
	if err := wantRows(q, demoKinds, 3); err != nil {
		return err
	}
	for k := 0; k < demoKinds; k++ {
		var n int64
		var sum float64
		for d := 0; d < dayBelow; d++ {
			n += o.agg[k][d].n
			sum += o.agg[k][d].sum
		}
		if r := q.Rows[k]; !intEq(r[0], int64(k)) || !intEq(r[1], n) || !numEq(r[2], sum) {
			return fmt.Errorf("kind %d: got %v, want [%d %d %g]", k, r, k, n, sum)
		}
	}
	return nil
}
