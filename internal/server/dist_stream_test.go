package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// traceRecorder captures distributed streaming events in arrival order.
type traceRecorder struct {
	mu     sync.Mutex
	events []string
}

func (r *traceRecorder) record(ev string) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *traceRecorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.events...)
}

// TestClusterStreamingOverlap pins that streaming is real, not
// cosmetic: during a two-node distributed Q3 the coordinator's gather
// received its first morsel frame strictly before any main fragment
// completed — the "gather first frame" event fires while the producing
// fragment's RPC is still streaming its body, so the Final plan's
// stream-fed pipeline is consuming input that a barrier implementation
// would still be buffering. The stage events pin the same property for
// the broadcast edge: consumers bound stream-fed inboxes and producers
// shipped incrementally.
func TestClusterStreamingOverlap(t *testing.T) {
	servers, _, db := newTestClusterCfg(t, 2, Config{})
	rec := &traceRecorder{}
	setDistTrace(rec.record)
	defer setDistTrace(nil)

	sqlText := tpch.MustSQLText(3, db.Cfg.SF)
	want, err := servers[0].Submit(context.Background(), &Request{SQL: sqlText})
	if err != nil {
		t.Fatal(err)
	}
	got, err := servers[0].Submit(context.Background(), &Request{SQL: sqlText, Distributed: true})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "q3 distributed under trace", got, want)

	events := rec.snapshot()
	firstFrame, firstMainDone := -1, -1
	for i, ev := range events {
		if ev == "gather first frame" && firstFrame < 0 {
			firstFrame = i
		}
		if strings.HasPrefix(ev, "main node ") && strings.HasSuffix(ev, " done") && firstMainDone < 0 {
			firstMainDone = i
		}
	}
	if firstFrame < 0 || firstMainDone < 0 {
		t.Fatalf("missing gather/main events:\n%s", strings.Join(events, "\n"))
	}
	if firstFrame > firstMainDone {
		t.Fatalf("gather saw its first frame only after a main fragment completed — no overlap:\n%s",
			strings.Join(events, "\n"))
	}
	// The broadcast stage streamed through stream-fed inboxes on both
	// nodes: each consumer's bound sink saw frames, each producer
	// shipped incrementally before completing.
	for node := 0; node < 2; node++ {
		if !containsEvent(events, fmt.Sprintf("node %d first frame", node)) {
			t.Fatalf("node %d never streamed a stage/inbox frame:\n%s", node, strings.Join(events, "\n"))
		}
	}
	if !containsPrefix(events, "inbox ") {
		t.Fatalf("no stream-fed inbox consumed frames:\n%s", strings.Join(events, "\n"))
	}
	if st := servers[0].Stats(); st.Cluster == nil || st.Cluster.FramesStreamed == 0 {
		t.Fatalf("coordinator streamed no frames: %+v", st.Cluster)
	}
}

func containsEvent(events []string, substr string) bool {
	for _, ev := range events {
		if strings.Contains(ev, substr) {
			return true
		}
	}
	return false
}

func containsPrefix(events []string, prefix string) bool {
	for _, ev := range events {
		if strings.HasPrefix(ev, prefix) {
			return true
		}
	}
	return false
}

// submitWithDeadline guards against the exact failure mode these tests
// exist for: a distributed query that hangs instead of erroring.
func submitWithDeadline(t *testing.T, s *Server, req *Request, deadline time.Duration) (*Response, error) {
	t.Helper()
	type outcome struct {
		resp *Response
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		resp, err := s.Submit(context.Background(), req)
		ch <- outcome{resp, err}
	}()
	select {
	case o := <-ch:
		return o.resp, o.err
	case <-time.After(deadline):
		t.Fatalf("distributed query hung past %v", deadline)
		return nil, nil
	}
}

// waitQueriesDrained asserts no query (and no fragment goroutine holding
// one) leaks after a failure: the dispatcher's pending count must return
// to zero on every node.
func waitQueriesDrained(t *testing.T, servers []*Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		pending := int64(0)
		for _, s := range servers {
			pending += s.Stats().Dispatcher.PendingQueries
		}
		if pending == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d queries still pending after node failure", pending)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterNodeDownFailsFast: a distributed query against a cluster
// with a dead node returns an error within the configured fragment
// timeout/retry budget — it does not hang — retries are counted, no
// query leaks, and the surviving coordinator still answers single-node
// queries.
func TestClusterNodeDownFailsFast(t *testing.T) {
	cfg := Config{FragTimeout: 2 * time.Second, FragRetries: 1, DefaultTimeout: 20 * time.Second}
	servers, listeners, db := newTestClusterCfg(t, 2, cfg)
	listeners[1].Close() // node 1 is gone before the query starts

	start := time.Now()
	_, err := submitWithDeadline(t, servers[0],
		&Request{SQL: tpch.MustSQLText(6, db.Cfg.SF), Distributed: true}, 15*time.Second)
	if err == nil {
		t.Fatal("query against a dead node succeeded")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("failure took %v, want well under the 15s hang deadline", elapsed)
	}
	if st := servers[0].ClusterStats(); st.FragRetries == 0 {
		t.Fatalf("no fragment retries recorded: %+v", st)
	}
	waitQueriesDrained(t, servers[:1])

	// The coordinator is still healthy for non-distributed work.
	resp, err := servers[0].Submit(context.Background(),
		&Request{SQL: "select count(*) as n from nation"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0].(int64) != 25 {
		t.Fatalf("post-failure query wrong: %+v", resp.Rows)
	}
}

// TestClusterNodeKilledMidQuery kills a peer mid-stream: node 1 is
// severed just before it writes the first bytes of its main fragment's
// response, so the coordinator can never hold node 1's complete stream,
// and its retry meets a refused connection. The query must fail cleanly
// within the fragment timeout budget: no hang, no leaked query, and the
// cluster still serves afterwards.
func TestClusterNodeKilledMidQuery(t *testing.T) {
	cfg := Config{FragTimeout: 2 * time.Second, FragRetries: 1, DefaultTimeout: 20 * time.Second}
	servers, listeners, db := newTestClusterCfg(t, 2, cfg)

	var kill sync.Once
	setDistTrace(func(ev string) {
		if ev == "main node 1 first frame" {
			kill.Do(func() {
				// Stop accepting and sever live connections: in-flight
				// fragment RPCs and pushes die mid-stream, and retries
				// meet a refused connection.
				listeners[1].Listener.Close()
				listeners[1].CloseClientConnections()
			})
		}
	})
	defer setDistTrace(nil)

	_, err := submitWithDeadline(t, servers[0],
		&Request{SQL: tpch.MustSQLText(1, db.Cfg.SF), Distributed: true}, 15*time.Second)
	if err == nil {
		t.Fatal("query with a node killed mid-stream succeeded")
	}
	setDistTrace(nil)
	waitQueriesDrained(t, servers[:1])

	resp, err := servers[0].Submit(context.Background(),
		&Request{SQL: "select count(*) as n from nation"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0].(int64) != 25 {
		t.Fatalf("post-failure query wrong: %+v", resp.Rows)
	}
}

// TestClusterRejectsMalformedFragment posts /exchange/run fragments whose
// routing fields do not fit their plan, a stage scanning lineitem. Run,
// each would panic on a worker goroutine once a chunk fills: a partition
// stage over zero parts divides by zero, a float or unknown key column
// has no integer keys, and a narrower out_schema indexes past the row.
// The node must answer 400 before executing, then keep serving with no
// query left behind.
func TestClusterRejectsMalformedFragment(t *testing.T) {
	servers, listeners, _ := newTestClusterCfg(t, 2, Config{})
	li, ok := servers[1].Table("lineitem")
	if !ok {
		t.Fatal("lineitem not registered")
	}
	p := engine.NewPlan("$x1")
	p.Return(p.Scan(li, "l_orderkey", "l_quantity", "l_returnflag"))
	plan, err := engine.EncodePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	out := p.OutSchema()
	cases := []struct {
		name string
		edit func(fr *fragmentRequest)
	}{
		{"zero parts", func(fr *fragmentRequest) { fr.Parts = 0 }},
		{"float key", func(fr *fragmentRequest) { fr.KeyCol = "l_quantity" }},
		{"unknown key", func(fr *fragmentRequest) { fr.KeyCol = "nope" }},
		{"narrow out_schema", func(fr *fragmentRequest) { fr.Broadcast, fr.OutSchema = true, out[:1] }},
		{"retyped out_schema", func(fr *fragmentRequest) {
			fr.OutSchema = append(storage.Schema{{Name: "l_orderkey", Type: storage.F64}}, out[1:]...)
		}},
	}
	for i, tc := range cases {
		fr := fragmentRequest{
			QID: fmt.Sprintf("bad%d", i), Kind: "stage", Name: "$x1", Plan: plan,
			OutSchema: out, KeyCol: "l_orderkey", Parts: 16,
		}
		tc.edit(&fr)
		body, err := json.Marshal(&fr)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(listeners[1].URL+"/exchange/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}

	resp, err := servers[1].Submit(context.Background(), &Request{SQL: "select count(*) as n from nation"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0].(int64) != 25 {
		t.Fatalf("post-rejection query wrong: %+v", resp.Rows)
	}
	waitQueriesDrained(t, servers)
}
