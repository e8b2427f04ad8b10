package engine

import (
	"context"
	"errors"
	"time"

	"repro/internal/dispatch"
	"repro/internal/storage"
)

// ErrCanceled is returned by Exec.Run when the query was canceled via the
// dispatcher (directly or by another goroutine) rather than by its own
// context.
var ErrCanceled = errors.New("engine: query canceled")

// Exec is a long-lived shared execution backend: one dispatcher and one
// real (goroutine-per-hardware-thread) worker pool serving many
// concurrent queries. Queries submitted through Run share the workers at
// morsel granularity — the paper's elasticity (§3.1) exposed as a
// service: the dispatcher re-decides worker assignment at every morsel
// boundary, proportionally to Query.Priority.
//
// Exec is safe for concurrent use. Session.Run, by contrast, builds a
// private dispatcher and pool per call — correct but without cross-query
// sharing.
type Exec struct {
	sess   *Session
	d      *dispatch.Dispatcher
	runner *dispatch.RealRunner
}

// NewExec creates a started executor from the session's machine and
// dispatch configuration. The session is copied with Mode forced to Real
// and the worker count resolved, so compiled per-worker state always
// matches the pool. Call Close to stop the workers.
func NewExec(s *Session) *Exec {
	sess := *s
	sess.Mode = Real
	if sess.Dispatch.Workers <= 0 {
		sess.Dispatch.Workers = sess.Machine.Topo.HardwareThreads()
	}
	d := dispatch.NewDispatcher(sess.Machine, sess.Dispatch)
	x := &Exec{sess: &sess, d: d, runner: dispatch.NewRealRunner(d)}
	x.runner.Start()
	return x
}

// Session returns the executor's (resolved, Real-mode) session. Treat it
// as read-only: it is shared by every concurrent compile.
func (x *Exec) Session() *Session { return x.sess }

// Dispatcher exposes the shared dispatcher (queue depth, cancellation).
func (x *Exec) Dispatcher() *dispatch.Dispatcher { return x.d }

// PoolStats returns race-safe pool-wide execution counters.
func (x *Exec) PoolStats() dispatch.PoolStats { return x.runner.Stats() }

// Workers returns the size of the shared worker pool.
func (x *Exec) Workers() int { return x.sess.Dispatch.Workers }

// Close stops the worker pool after in-flight morsels finish. Run must
// not be called after Close.
func (x *Exec) Close() { x.runner.Stop() }

// Run compiles and executes a plan on the shared pool. priority (>= 1)
// sets the query's elastic share weight; 0 keeps the default. When ctx
// is canceled or times out, the query is canceled at the next morsel
// boundary and ctx.Err() is returned.
//
// The returned QueryStats carries the query's wall-clock time; byte and
// morsel counters are pool-wide (shared across concurrent queries) and
// available via PoolStats.
func (x *Exec) Run(ctx context.Context, p *Plan, priority int) (*Result, QueryStats, error) {
	return x.RunSnap(ctx, p, priority, nil)
}

// RunSnap is Run with every table scan pinned to the given storage snap
// (nil = each scan reads the latest committed view). Servers pin a snap
// at admission so a query's scans all see one data-version while
// appends keep landing.
func (x *Exec) RunSnap(ctx context.Context, p *Plan, priority int, snap *storage.Snap) (*Result, QueryStats, error) {
	cp := x.sess.CompileSnap(p, snap)
	if priority >= 1 {
		cp.Query.Priority = priority
	}
	start := time.Now()
	x.d.Submit(cp.Query)
	cp.BindStreams(x.d) // after Submit: a stream failure cancels via the dispatcher
	select {
	case <-cp.Query.Done():
	case <-ctx.Done():
		x.d.Cancel(cp.Query)
		<-cp.Query.Done() // no worker still touches the query's state
		return nil, QueryStats{}, ctx.Err()
	}
	if cp.Query.Canceled() {
		if serr := cp.StreamErr(); serr != nil {
			return nil, QueryStats{}, serr
		}
		return nil, QueryStats{}, ErrCanceled
	}
	stats := QueryStats{
		TimeNs:  float64(time.Since(start).Nanoseconds()),
		LinkGBs: x.sess.Machine.Cost.LinkGBs,
	}
	return cp.Collect(), stats, nil
}

// RunToStream compiles and executes a plan, feeding its result to out in
// chunked partitions as the root pipelines produce them — the sending
// half of an exchange edge. out is closed exactly once: with
// nil on success, the failure otherwise. Plans with a terminal sort
// buffer at the sort barrier and ship afterwards (the barrier the
// planner retained on purpose: per-node top-k fragments still send at
// most LIMIT rows).
func (x *Exec) RunToStream(ctx context.Context, p *Plan, priority int, out PartSink) error {
	if len(p.sortKeys) > 0 || p.limit != 0 {
		res, _, err := x.Run(ctx, p, priority)
		if err != nil {
			out.Close(err)
			return err
		}
		if res.NumRows() > 0 {
			tab := res.ToTable("$stream", x.Workers(), x.sess.Machine.Topo.Sockets)
			out.Feed(tab.Parts...)
		}
		out.Close(nil)
		return nil
	}
	cp, flush := x.sess.compileToStream(p, out)
	if priority >= 1 {
		cp.Query.Priority = priority
	}
	x.d.Submit(cp.Query)
	cp.BindStreams(x.d)
	select {
	case <-cp.Query.Done():
	case <-ctx.Done():
		x.d.Cancel(cp.Query)
		<-cp.Query.Done()
		out.Close(ctx.Err())
		return ctx.Err()
	}
	if cp.Query.Canceled() {
		err := cp.StreamErr()
		if err == nil {
			err = ErrCanceled
		}
		out.Close(err)
		return err
	}
	flush()
	out.Close(nil)
	return nil
}
