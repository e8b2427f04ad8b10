package main

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.9); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	// Every kind counts equally: a 100x slower kind moves the geometric
	// mean by 10x, not by 50x as it would the arithmetic mean.
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean = %v, want 10", got)
	}
}

// TestQuartilesMatchPython pins the cut points to what Python's
// statistics.quantiles(xs, n=4) returns, which is what the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSpearman(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if got := spearman(a, []float64{10, 20, 25, 70, 900}); !near(got, 1) {
		t.Errorf("monotone series correlate %v, want 1", got)
	}
	if got := spearman(a, []float64{5, 4, 3, 2, 1}); !near(got, -1) {
		t.Errorf("reversed series correlate %v, want -1", got)
	}
	if got := ranks([]float64{7, 3, 7, 1}); got[0] != 3.5 || got[2] != 3.5 || got[1] != 2 || got[3] != 1 {
		t.Errorf("tied ranks = %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a: the shared 20..30 counts once
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 3, Name: "b.inner", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 10, 4: 10, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", 0, 1)) // must not panic
	on := newTracer()
	root := on.begin("request", 0, 7)
	child := on.begin("step", root, 7)
	on.end(child)
	on.end(root)
	if len(on.spans) != 2 || on.spans[1].Parent != root || on.spans[1].Req != 7 || on.spans[0].End < on.spans[1].End {
		t.Errorf("recorded spans %+v", on.spans)
	}
}

// TestOpenLoopDueTimes: the schedule depends on the start and the rate
// only, so a late reply cannot push later requests back.
func TestOpenLoopDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	if got := dueTime(start, 0, 50); !got.Equal(start) {
		t.Errorf("request 0 due %v, want the start", got)
	}
	if got := dueTime(start, 50, 50); !got.Equal(start.Add(time.Second)) {
		t.Errorf("request 50 at 50/s due %v, want start+1s", got)
	}
	if got := dueTime(start, 3, 50).Sub(dueTime(start, 2, 50)); got != 20*time.Millisecond {
		t.Errorf("period %v, want 20ms", got)
	}
}

func TestCompareVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		better string
		a, b   []float64
		want   string
	}{
		{"lower is better, got slower", "lower", steady, []float64{120, 121, 119, 120, 120}, "worse"},
		{"lower is better, got faster", "lower", steady, []float64{80, 81, 79, 80, 80}, "better"},
		{"higher is better, got slower", "higher", steady, []float64{80, 81, 79, 80, 80}, "worse"},
		{"within the bound", "lower", steady, []float64{104, 105, 103, 104, 104}, "same"},
		{"base too noisy to tell", "lower", []float64{60, 100, 140, 80, 120}, []float64{120, 121, 119, 120, 120}, "unresolved"},
	} {
		if got, _ := compareVerdict(c.better, 0.10, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// failed_frac: one failed operation in one run of many is worse.
	clean := []float64{0, 0, 0, 0, 0}
	if got := failedVerdict(clean, []float64{0, 0, 1e-5, 0, 0}); got != "worse" {
		t.Errorf("failed_frac rose: verdict %q, want worse", got)
	}
	if got := failedVerdict(clean, clean); got != "same" {
		t.Errorf("failed_frac stayed 0: verdict %q, want same", got)
	}
}

func TestTPCHOracleMatching(t *testing.T) {
	e := &tpchExpect{
		cols:  []engine.Reg{{Name: "k", Type: engine.TInt}, {Name: "name", Type: engine.TStr}, {Name: "extra", Type: engine.TInt}, {Name: "sum", Type: engine.TFloat}},
		rows:  [][]engine.Val{{{I: 1}, {S: "a"}, {I: 9}, {F: 1000}}, {{I: 2}, {S: "b"}, {I: 9}, {F: 2000}}},
		alias: map[string]string{"key": "k"},
	}
	// Columns by name (through the alias), a subset, rows in any order,
	// floats within tolerance.
	ok := &queryReply{Columns: []string{"sum", "key"}, Rows: [][]any{{2000.0000001, 2.0}, {1000.0, 1.0}}}
	if err := e.check(ok); err != nil {
		t.Errorf("matching reply rejected: %v", err)
	}
	for name, bad := range map[string]*queryReply{
		"float off":     {Columns: []string{"sum", "key"}, Rows: [][]any{{2000.1, 2.0}, {1000.0, 1.0}}},
		"row missing":   {Columns: []string{"sum", "key"}, Rows: [][]any{{1000.0, 1.0}}},
		"row repeated":  {Columns: []string{"sum", "key"}, Rows: [][]any{{1000.0, 1.0}, {1000.0, 1.0}}},
		"unknown field": {Columns: []string{"nope"}, Rows: [][]any{{1.0}, {2.0}}},
	} {
		if e.check(bad) == nil {
			t.Errorf("%s: wrong reply accepted", name)
		}
	}
	if intEq(float64(1_000_001), 1_000_000) {
		t.Error("integers must compare exactly, not within the float tolerance")
	}
}

func TestIngestOracleVersions(t *testing.T) {
	o := newIngestOracle(1000, 3, 42)
	total := func() (n int64, sum float64) {
		for k := range o.agg {
			for d := range o.agg[k] {
				n += o.agg[k][d].n
				sum += o.agg[k][d].sum
			}
		}
		return
	}
	reply := func(v uint64, n int64, sum float64) *queryReply {
		return &queryReply{Rows: [][]any{{float64(n), sum}}, Versions: map[string]uint64{"orders": v}}
	}
	if n, _ := total(); n != 1000 {
		t.Fatalf("base holds %d rows, want 1000", n)
	}
	// A read cannot be pinned past what was sent.
	if err := o.checkCount(reply(1, 1000+batchRows, 0)); err == nil {
		t.Error("accepted a version from the future")
	}
	o.issued.Store(2)
	var want float64
	for _, r := range append(append([]ingestRow(nil), o.rows[0]...), o.rows[1]...) {
		want += float64(r.amount)
	}
	_, base := total()
	if err := o.checkCount(reply(2, 1000+2*batchRows, base+want)); err != nil {
		t.Errorf("exact count and sum at version 2 rejected: %v", err)
	}
	if err := o.checkCount(reply(2, 1000+2*batchRows-1, base+want)); err == nil {
		t.Error("accepted a count that is one row short")
	}
	if err := o.checkCount(reply(1, 1000+batchRows, 0)); err == nil {
		t.Error("accepted a pinned version that moved backwards")
	}
}

// TestFailuresAreFinal pins the failure accounting: a reply the oracle
// rejects, a refusal and an HTTP error each count as one failed
// operation, and none of them is sent a second time.
func TestFailuresAreFinal(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		switch r.URL.Path {
		case "/refuse":
			w.WriteHeader(http.StatusTooManyRequests)
		case "/break":
			w.WriteHeader(http.StatusInternalServerError)
		default:
			w.Write([]byte(`{"columns":["n"],"rows":[[1]]}`))
		}
	}))
	defer srv.Close()
	c := &client{http: srv.Client(), base: srv.URL, rec: newRecorder()}
	checks := 0
	wrongOnce := func(*reply) error { // only the first reply is "wrong": a re-send would pass
		if checks++; checks == 1 {
			return errors.New("one row short")
		}
		return nil
	}
	c.do(op{kind: "q", path: "/query", check: wrongOnce}, time.Time{})
	c.do(op{kind: "q", path: "/refuse"}, time.Time{})
	c.do(op{kind: "q", path: "/break"}, time.Time{})
	c.do(op{kind: "q", path: "/query", check: wrongOnce}, time.Time{})
	if hits != 4 || c.rec.attempted != 4 || c.rec.failed != 3 || len(c.rec.latMs["q"]) != 1 {
		t.Errorf("%d requests, %d attempted, %d failed, %d timed; want 4, 4, 3, 1", hits, c.rec.attempted, c.rec.failed, len(c.rec.latMs["q"]))
	}
}
