package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"
)

// op is one request of a workload: where it goes, what it carries, and
// the oracle its reply must satisfy.
type op struct {
	kind  string
	path  string // /query, /append or /snapshot
	body  []byte
	check func(r *reply) error
	// The statement of a /query op, which the traced pass runs in
	// process through the same oracle.
	sql    string
	params []any
}

// queryOp builds a POST /query op for a statement and its parameters.
func queryOp(kind, sql string, check func(q *queryReply) error, params ...any) op {
	return op{kind: kind, path: "/query", body: sqlBody(sql, params...), sql: sql, params: params,
		check: func(r *reply) error { return check(r.query) }}
}

// reply is what came back for an op: the raw body, and for /query ops
// the decoded result.
type reply struct {
	raw   []byte
	query *queryReply
}

// queryReply is the slice of POST /query's reply the benchmark reads.
type queryReply struct {
	Columns   []string          `json:"columns"`
	Rows      [][]any           `json:"rows"`
	QueuedMs  float64           `json:"queued_ms"`
	ElapsedMs float64           `json:"elapsed_ms"`
	Versions  map[string]uint64 `json:"versions"`
}

// appendReply is the slice of POST /append's reply the benchmark reads.
type appendReply struct {
	RowsAppended int    `json:"rows_appended"`
	Version      uint64 `json:"version"`
}

// recorder accumulates what one measured window observed from outside
// the daemon. Safe for concurrent clients.
type recorder struct {
	mu        sync.Mutex
	latMs     map[string][]float64 // per op kind, client-observed
	wireMs    []float64            // client latency minus the reply's elapsed_ms
	queuedMs  []float64            // the reply's admission wait
	lateMs    []float64            // open-loop sends: how long after its due time a request left
	attempted int
	failed    int // HTTP errors, refusals (429) and oracle mismatches
}

func newRecorder() *recorder { return &recorder{latMs: make(map[string][]float64)} }

// client sends ops to one daemon and records each outcome.
type client struct {
	http *http.Client
	base string
	rec  *recorder
}

// do sends one op and checks its reply. A zero due time makes it a
// closed-loop request timed from the send; otherwise the latency runs
// from the due time, so a stall charges the requests queued behind it.
// Latency ends when the whole reply body has arrived; decoding and the
// oracle are off the clock. An op is sent once: an HTTP error, a refusal
// and a reply the oracle rejects are all failed operations.
func (c *client) do(o op, due time.Time) {
	sent, lat, rep, err := c.send(o, due)
	c.rec.record(o, due, sent, lat, rep, err)
}

// record files the outcome of an op.
func (r *recorder) record(o op, due, sent time.Time, latMs float64, rep reply, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !due.IsZero() {
		r.lateMs = append(r.lateMs, float64(sent.Sub(due).Nanoseconds())/1e6)
	}
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintf(os.Stderr, "FAILED %s: %v (request %.300s)\n", o.kind, err, o.body)
		}
		return
	}
	r.latMs[o.kind] = append(r.latMs[o.kind], latMs)
	if rep.query != nil {
		r.wireMs = append(r.wireMs, latMs-rep.query.ElapsedMs)
		r.queuedMs = append(r.queuedMs, rep.query.QueuedMs)
	}
}

// send performs one HTTP exchange of the op and runs its oracle.
func (c *client) send(o op, due time.Time) (sent time.Time, latMs float64, rep reply, err error) {
	sent = time.Now()
	from := sent
	if !due.IsZero() {
		from = due
	}
	resp, err := c.http.Post(c.base+o.path, "application/json", bytes.NewReader(o.body))
	if err == nil {
		rep.raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	latMs = float64(time.Since(from).Nanoseconds()) / 1e6
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, rep.raw)
	}
	if err == nil && o.path == "/query" {
		rep.query = new(queryReply)
		if err = json.Unmarshal(rep.raw, rep.query); err != nil {
			err = fmt.Errorf("undecodable reply: %w", err)
		}
	}
	if err == nil && o.check != nil {
		if cerr := o.check(&rep); cerr != nil {
			err = fmt.Errorf("oracle mismatch: %w", cerr)
		}
	}
	return sent, latMs, rep, err
}

// dueTime is when request i of an open-loop schedule must leave: the
// schedule is fixed by the start and the rate alone, never by how fast
// earlier requests were answered.
func dueTime(start time.Time, i int, perSecond float64) time.Time {
	return start.Add(time.Duration(float64(i) / perSecond * float64(time.Second)))
}

// getJSON fetches one of the daemon's GET endpoints.
func getJSON(h *http.Client, url string, v any) error {
	resp, err := h.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only literals and numbers are ever passed
	}
	return b
}

func sqlBody(sql string, params ...any) []byte {
	m := map[string]any{"sql": sql}
	if len(params) > 0 {
		m["params"] = params
	}
	return mustJSON(m)
}
