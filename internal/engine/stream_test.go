package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/storage"
)

// streamStub builds a schema-only stub table typing a stream.
func streamStub(name string) *storage.Table {
	return &storage.Table{Name: name, Schema: storage.Schema{
		{Name: "k", Type: storage.I64},
		{Name: "v", Type: storage.F64},
	}}
}

// streamFeedTable builds real partitions matching streamStub's schema.
func streamFeedTable(rows int, base int64) *storage.Table {
	b := storage.NewBuilder("feed", storage.Schema{
		{Name: "k", Type: storage.I64},
		{Name: "v", Type: storage.F64},
	}, 4, "k")
	for i := 0; i < rows; i++ {
		b.Append(storage.Row{base + int64(i%7), float64(i)})
	}
	return b.Build(storage.NUMAAware, 4)
}

// TestStreamScanExec runs a plan whose source is a stream: rows fed
// through a StreamSource (partly before the query starts, partly while
// it runs) must aggregate exactly like a table scan of the same rows.
func TestStreamScanExec(t *testing.T) {
	sess := newTestSession(Real)
	x := NewExec(sess)
	defer x.Close()

	src := NewStreamSource("test")
	p := NewPlan("streamscan")
	p.ReturnSorted(
		p.ScanStream(src, streamStub("$in"), "k", "v").
			GroupBy([]NamedExpr{N("k", Col("k"))},
				[]AggDef{Count("n"), Sum("s", Col("v"))}),
		0, Asc("k"))

	early := streamFeedTable(3000, 0)
	late := streamFeedTable(2000, 2)
	src.Feed(early.Parts...) // buffered: the query has not started
	resCh := make(chan *Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, _, err := x.Run(context.Background(), p, 0)
		resCh <- res
		errCh <- err
	}()
	src.Feed(late.Parts...)
	src.Close(nil)
	res, err := <-resCh, <-errCh
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the same rows as a plain table union scan.
	ref := NewPlan("ref")
	ref.ReturnSorted(
		ref.Union(ref.Scan(early, "k", "v"), ref.Scan(late, "k", "v")).
			GroupBy([]NamedExpr{N("k", Col("k"))},
				[]AggDef{Count("n"), Sum("s", Col("v"))}),
		0, Asc("k"))
	want, _, err := x.Run(context.Background(), ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res, rowsToStrings(want), "stream scan")
}

// TestStreamScanError: a stream closed with an error must cancel the
// query and surface that error (not a bare ErrCanceled) from Run.
func TestStreamScanError(t *testing.T) {
	sess := newTestSession(Real)
	x := NewExec(sess)
	defer x.Close()

	src := NewStreamSource("boom")
	p := NewPlan("streamerr")
	p.Return(p.ScanStream(src, streamStub("$in"), "k", "v"))

	boom := errors.New("peer node died")
	done := make(chan error, 1)
	go func() {
		_, _, err := x.Run(context.Background(), p, 0)
		done <- err
	}()
	src.Feed(streamFeedTable(500, 0).Parts...)
	src.Close(boom)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestStreamExchangeParity: in Real mode an exchange edge executes
// in-process through the StreamSource hand-off and must produce exactly
// the rows of Sim's buffer-and-rescan barrier.
func TestStreamExchangeParity(t *testing.T) {
	tab := matTestTable()
	build := func() *Plan {
		p := NewPlan("sxchg")
		n := p.Scan(tab, "k", "v").Filter(Lt(Col("k"), ConstI(30))).
			Exchange(ExchangeGather, nil, 2)
		p.ReturnSorted(n.GroupBy([]NamedExpr{N("k", Col("k"))},
			[]AggDef{Sum("s", Col("v")), Count("c")}), 0, Asc("k"))
		return p
	}

	want, _ := newTestSession(Sim).Run(build())
	rs := newTestSession(Real)
	if !rs.Compile(build()).HasStreams() {
		t.Fatal("Real-mode exchange compiled without a stream")
	}
	if newTestSession(Sim).Compile(build()).HasStreams() {
		t.Fatal("Sim-mode exchange compiled a stream")
	}
	got, _ := rs.Run(build())
	sameRows(t, got, rowsToStrings(want), "streamed exchange")
}

// TestStreamMarkerWire: DecodePlanStreams turns a named scan into a
// stream scan.
func TestStreamMarkerWire(t *testing.T) {
	tab := matTestTable()
	lookup := func(name string) (*storage.Table, bool) { return tab, name == "facts" }
	src := NewStreamSource("$x0")
	p := NewPlan("wire")
	p.Return(p.Scan(tab, "k", "v"))
	data, err := EncodePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := DecodePlanStreams(data, lookup, map[string]*StreamSource{"facts": src})
	if err != nil {
		t.Fatal(err)
	}
	if dp.root.stream != src {
		t.Fatal("decoded scan not bound to the stream source")
	}
}

// TestRunToStream: an unsorted plan's output arrives through the sink in
// chunks, closed exactly once with nil; a sorted (top-k) plan buffers at
// the sort and ships at most LIMIT rows.
func TestRunToStream(t *testing.T) {
	sess := newTestSession(Real)
	x := NewExec(sess)
	defer x.Close()
	tab := matTestTable()

	p := NewPlan("rts")
	p.Return(p.Scan(tab, "k", "v").Filter(Lt(Col("k"), ConstI(5))))
	out := NewStreamSource("out")
	if err := x.RunToStream(context.Background(), p, 0, out); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, part := range out.buf {
		rows += part.Rows()
	}
	want, _, err := x.Run(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rows != want.NumRows() {
		t.Fatalf("streamed %d rows, want %d", rows, want.NumRows())
	}

	topk := NewPlan("rts-topk")
	topk.ReturnSorted(topk.Scan(tab, "k", "v"), 7, Asc("k"), Desc("v"))
	out2 := NewStreamSource("out2")
	if err := x.RunToStream(context.Background(), topk, 0, out2); err != nil {
		t.Fatal(err)
	}
	rows2 := 0
	for _, part := range out2.buf {
		rows2 += part.Rows()
	}
	if rows2 != 7 {
		t.Fatalf("top-k streamed %d rows, want 7", rows2)
	}
}
