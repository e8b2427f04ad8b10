package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// buildSystem creates a small system with an orders fact table and a
// customers dimension.
func buildSystem(orderRows int) (*core.System, *core.Table, *core.Table) {
	sys := core.NewSystem(core.Nehalem(), core.Options{Workers: 8, MorselRows: 1000})
	ob := core.NewTableBuilder("orders", core.Schema{
		{Name: "id", Type: core.I64},
		{Name: "cust", Type: core.I64},
		{Name: "kind", Type: core.I64},
		{Name: "amount", Type: core.F64},
	}, 32, "id")
	for i := 0; i < orderRows; i++ {
		ob.Append(core.Row{int64(i), int64(i % 997), int64(i % 7), float64(i%10_000) / 100})
	}
	orders := sys.Register(ob)

	cb := core.NewTableBuilder("customers", core.Schema{
		{Name: "cid", Type: core.I64},
		{Name: "name", Type: core.Str},
		{Name: "region", Type: core.Str},
	}, 8, "cid")
	regions := []string{"emea", "amer", "apac"}
	for i := 0; i < 997; i++ {
		cb.Append(core.Row{int64(i), fmt.Sprintf("cust-%03d", i), regions[i%3]})
	}
	customers := sys.Register(cb)
	return sys, orders, customers
}

// The three statements most server tests submit — a batch rollup, an
// interactive point aggregate and a join — and, below, the same queries
// built by hand as independent solo references.
const (
	sqlRevenueByKind   = "SELECT kind, COUNT(*) AS n, SUM(amount) AS revenue FROM orders GROUP BY kind ORDER BY kind"
	sqlCountOrders     = "SELECT COUNT(*) AS n FROM orders WHERE kind < 5"
	sqlRevenueByRegion = "SELECT region, SUM(amount) AS revenue FROM orders, customers WHERE cust = cid GROUP BY region ORDER BY revenue DESC"
)

func revenueByKind(orders *core.Table) *core.Plan {
	p := core.NewPlan("revenue-by-kind")
	p.ReturnSorted(
		p.Scan(orders, "kind", "amount").
			GroupBy([]core.NamedExpr{core.N("kind", core.Col("kind"))},
				[]core.AggDef{core.Count("n"), core.Sum("revenue", core.Col("amount"))}),
		0, core.Asc("kind"))
	return p
}

func countOrders(orders *core.Table) *core.Plan {
	p := core.NewPlan("count-orders")
	p.Return(
		p.Scan(orders, "kind").
			Filter(core.Lt(core.Col("kind"), core.ConstI(5))).
			GroupBy(nil, []core.AggDef{core.Count("n")}))
	return p
}

func revenueByRegion(orders, customers *core.Table) *core.Plan {
	p := core.NewPlan("revenue-by-region")
	build := p.Scan(customers, "cid", "region")
	p.ReturnSorted(
		p.Scan(orders, "cust", "amount").
			HashJoin(build, core.JoinInner,
				[]*core.Expr{core.Col("cust")}, []*core.Expr{core.Col("cid")}, "region").
			GroupBy([]core.NamedExpr{core.N("region", core.Col("region"))},
				[]core.AggDef{core.Sum("revenue", core.Col("amount"))}),
		0, core.Desc("revenue"))
	return p
}

func newTestServer(orderRows int, cfg Config) (*Server, *core.Table, *core.Table) {
	sys, orders, customers := buildSystem(orderRows)
	s := New(sys, cfg)
	s.RegisterTable(orders)
	s.RegisterTable(customers)
	return s, orders, customers
}

// canonCell formats one cell for comparison. Floats are rounded to 4
// decimals: parallel float summation is order-dependent, so concurrent
// runs differ from the solo reference in the last bits; the test data
// keeps true sums on a 0.01 grid, making 4 decimals safely stable.
func canonCell(v any) string {
	switch x := v.(type) {
	case float64:
		return fmt.Sprintf("%.4f", x)
	default:
		return fmt.Sprint(x)
	}
}

func canonRow(row []any) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = canonCell(v)
	}
	return "[" + fmt.Sprint(parts) + "]"
}

// canonResult canonicalizes a core result for order-insensitive
// comparison, using the same typed extraction the server response uses.
func canonResult(r *core.Result) []string {
	rows := make([]string, 0, r.NumRows())
	for _, vals := range r.Rows() {
		row := make([]any, len(vals))
		for j, v := range vals {
			switch r.Schema[j].Type {
			case engine.TInt:
				row[j] = v.I
			case engine.TFloat:
				row[j] = v.F
			default:
				row[j] = v.S
			}
		}
		rows = append(rows, canonRow(row))
	}
	sort.Strings(rows)
	return rows
}

func canonResponse(resp *Response) []string {
	rows := make([]string, len(resp.Rows))
	for i, r := range resp.Rows {
		rows[i] = canonRow(r)
	}
	sort.Strings(rows)
	return rows
}

func equalCanon(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConcurrentMixedPrioritiesMatchReference is the correctness core of
// the server: N concurrent SQL queries (mixed statements, mixed priority
// classes) through ONE shared server and worker pool must each return
// exactly the rows a solo run of the equivalent hand-built plan returns.
// Run under -race in CI.
func TestConcurrentMixedPrioritiesMatchReference(t *testing.T) {
	s, orders, customers := newTestServer(120_000, Config{MaxConcurrent: 16, MaxQueue: 64})
	defer s.Close()

	queries := []struct {
		sql  string
		plan *core.Plan
	}{
		{sqlRevenueByKind, revenueByKind(orders)},
		{sqlCountOrders, countOrders(orders)},
		{sqlRevenueByRegion, revenueByRegion(orders, customers)},
	}

	// Single-query references, each on a private pool via System.Run.
	refs := make([][]string, len(queries))
	for i, q := range queries {
		res, _ := s.sys.Run(q.plan)
		refs[i] = canonResult(res)
	}

	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qi := i % len(queries)
			name := queries[qi].plan.Name
			class := ClassInteractive
			if i%2 == 0 {
				class = ClassBatch
			}
			resp, err := s.Submit(context.Background(), &Request{SQL: queries[qi].sql, Priority: class})
			if err != nil {
				errs <- fmt.Errorf("query %d (%s/%s): %v", i, name, class, err)
				return
			}
			if !equalCanon(canonResponse(resp), refs[qi]) {
				errs <- fmt.Errorf("query %d (%s/%s): result diverged from solo reference", i, name, class)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Stats()
	total := st.Classes[ClassInteractive].Completed + st.Classes[ClassBatch].Completed
	if total != n {
		t.Errorf("completed = %d, want %d", total, n)
	}
	if st.Dispatcher.PendingQueries != 0 {
		t.Errorf("pending queries = %d after drain", st.Dispatcher.PendingQueries)
	}
	if st.Pool.Morsels == 0 || st.Pool.Tuples == 0 {
		t.Error("pool counters did not accumulate")
	}
}

func TestAdmissionGate(t *testing.T) {
	var a admission
	a.init(1, 1)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	// Second acquire parks in the queue.
	parked := make(chan error, 1)
	go func() {
		err := a.acquire(context.Background())
		if err == nil {
			defer a.release()
		}
		parked <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for a.waiting() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second acquire never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Third acquire exceeds MaxConcurrent+MaxQueue and is rejected.
	if err := a.acquire(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third acquire: %v, want ErrQueueFull", err)
	}
	// A canceled waiter leaves the gate clean.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The queue is full again (one runner, one waiter), so this is
	// rejected, not blocked.
	if err := a.acquire(ctx); err == nil {
		t.Fatal("acquire on full gate succeeded")
	}
	a.release() // lets the parked waiter run
	if err := <-parked; err != nil {
		t.Fatalf("parked waiter: %v", err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for a.running() != 0 || a.waiting() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gate not drained: running=%d waiting=%d", a.running(), a.waiting())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestQueueFullEndToEnd(t *testing.T) {
	s, _, _ := newTestServer(10_000, Config{MaxConcurrent: 1, MaxQueue: -1})
	defer s.Close()

	// Occupy the single admission slot deterministically, as a running
	// query would.
	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(context.Background(), &Request{SQL: sqlCountOrders})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit against full gate: %v, want ErrQueueFull", err)
	}
	if got := s.Stats().Classes[ClassInteractive].Rejected; got != 1 {
		t.Errorf("interactive rejected = %d, want 1", got)
	}

	// Releasing the slot restores service.
	s.adm.release()
	resp, err := s.Submit(context.Background(), &Request{SQL: sqlCountOrders})
	if err != nil {
		t.Fatalf("submit after release: %v", err)
	}
	if resp.RowCount != 1 {
		t.Errorf("rows = %d, want 1", resp.RowCount)
	}
}

func TestQueryTimeoutThenRecovery(t *testing.T) {
	s, _, _ := newTestServer(400_000, Config{})
	defer s.Close()

	_, err := s.Submit(context.Background(),
		&Request{SQL: sqlRevenueByRegion, Priority: ClassBatch, TimeoutMs: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if got := s.Stats().Classes[ClassBatch].Timeouts; got != 1 {
		t.Errorf("batch timeouts = %d, want 1", got)
	}

	// The shared pool must be fully usable after the cancellation.
	resp, err := s.Submit(context.Background(), &Request{SQL: sqlCountOrders})
	if err != nil {
		t.Fatalf("follow-up query: %v", err)
	}
	if resp.RowCount != 1 {
		t.Errorf("follow-up rows = %d, want 1", resp.RowCount)
	}
}

func TestSubmitValidation(t *testing.T) {
	s, _, _ := newTestServer(1_000, Config{})
	defer s.Close()
	ctx := context.Background()

	var bad *BadRequestError
	if _, err := s.Submit(ctx, &Request{}); !errors.As(err, &bad) {
		t.Errorf("empty request: %v, want BadRequestError", err)
	}
	if _, err := s.Submit(ctx, &Request{SQL: sqlCountOrders, Priority: "urgent"}); !errors.As(err, &bad) {
		t.Errorf("bad class: %v, want BadRequestError", err)
	}
	if _, err := s.Submit(ctx, &Request{SQL: "SELECT x FROM ghosts"}); !errors.As(err, &bad) {
		t.Errorf("unknown table: %v, want BadRequestError", err)
	}
	if _, err := s.Submit(ctx, &Request{SQL: "SELECT ghost_col FROM orders"}); !errors.As(err, &bad) {
		t.Errorf("unknown column: %v, want BadRequestError", err)
	}

	s.Close()
	if _, err := s.Submit(ctx, &Request{SQL: sqlCountOrders}); !errors.Is(err, ErrClosed) {
		t.Errorf("closed server: %v, want ErrClosed", err)
	}
}

func TestMaxRowsTruncation(t *testing.T) {
	s, _, _ := newTestServer(10_000, Config{})
	defer s.Close()
	resp, err := s.Submit(context.Background(), &Request{SQL: sqlRevenueByKind, MaxRows: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 3 || !resp.Truncated || resp.RowCount != 7 {
		t.Errorf("rows=%d truncated=%v row_count=%d, want 3/true/7",
			len(resp.Rows), resp.Truncated, resp.RowCount)
	}
}
