package dispatch

import (
	"sync"
	"sync/atomic"

	"repro/internal/numa"
)

// PoolStats is a race-safe snapshot of pool-wide execution counters of a
// long-lived RealRunner. Workers fold their per-task tracker deltas into
// shared atomics, so observers (a server's /stats endpoint) can read
// consistent totals while queries are in flight without touching the
// single-owner trackers.
type PoolStats struct {
	Tasks           int64 // morsel tasks executed
	Tuples          int64
	ReadBytes       int64
	WriteBytes      int64
	RemoteReadBytes int64
}

// RemotePct returns the percentage of read bytes that crossed sockets.
func (s PoolStats) RemotePct() float64 {
	if s.ReadBytes == 0 {
		return 0
	}
	return 100 * float64(s.RemoteReadBytes) / float64(s.ReadBytes)
}

type poolCounters struct {
	tasks           atomic.Int64
	tuples          atomic.Int64
	readBytes       atomic.Int64
	writeBytes      atomic.Int64
	remoteReadBytes atomic.Int64
}

func (c *poolCounters) add(d numa.Stats) {
	c.tasks.Add(d.Morsels)
	c.tuples.Add(d.Tuples)
	c.readBytes.Add(d.ReadBytes)
	c.writeBytes.Add(d.WriteBytes)
	c.remoteReadBytes.Add(d.RemoteReadBytes)
}

func (c *poolCounters) snapshot() PoolStats {
	return PoolStats{
		Tasks:           c.tasks.Load(),
		Tuples:          c.tuples.Load(),
		ReadBytes:       c.readBytes.Load(),
		WriteBytes:      c.writeBytes.Load(),
		RemoteReadBytes: c.remoteReadBytes.Load(),
	}
}

// RealRunner executes queries on actual goroutines, one per simulated
// hardware thread. Virtual-time statistics are still tracked, but
// scheduling interleavings come from the Go runtime — this runner
// validates that the dispatcher's lock-free morsel cutting, completion
// detection and QEP advancement are correct under real concurrency.
type RealRunner struct {
	D       *Dispatcher
	workers []*Worker

	mu       sync.Mutex
	cond     *sync.Cond
	shutdown bool
	started  bool
	wg       sync.WaitGroup

	counters poolCounters
}

// NewRealRunner creates a runner with the dispatcher's configured number
// of worker goroutines.
func NewRealRunner(d *Dispatcher) *RealRunner {
	r := &RealRunner{
		D:       d,
		workers: newWorkers(d.Machine, d.Cfg.Workers, nil),
	}
	r.cond = sync.NewCond(&r.mu)
	d.onActivate = func() {
		// Called with d.mu held; use the runner's own lock only.
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	}
	return r
}

// Workers exposes the worker pool for stats aggregation.
func (r *RealRunner) Workers() []*Worker { return r.workers }

// Stats returns pool-wide counters accumulated since the runner started.
// Safe to call concurrently with running queries.
func (r *RealRunner) Stats() PoolStats { return r.counters.snapshot() }

// Start launches the worker goroutines. Idempotent.
func (r *RealRunner) Start() {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.mu.Unlock()
	for _, w := range r.workers {
		r.wg.Add(1)
		go r.loop(w)
	}
}

// Stop shuts the workers down after in-flight morsels finish.
func (r *RealRunner) Stop() {
	r.mu.Lock()
	r.shutdown = true
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}

// RunToCompletion submits the queries, waits for all of them, and shuts
// the pool down.
func (r *RealRunner) RunToCompletion(queries ...*Query) {
	r.Start()
	for _, q := range queries {
		r.D.Submit(q)
	}
	for _, q := range queries {
		<-q.Done()
	}
	r.Stop()
}

func (r *RealRunner) loop(w *Worker) {
	defer r.wg.Done()
	var prev numa.Stats
	for {
		task, ok := r.D.NextTask(w)
		if !ok {
			r.mu.Lock()
			// Re-check under the lock: an activation may have
			// raced with our failed NextTask.
			gen := r.D.Activations()
			r.mu.Unlock()
			if task, ok = r.D.NextTask(w); !ok {
				r.mu.Lock()
				for !r.shutdown && gen == r.D.Activations() {
					r.cond.Wait()
				}
				stop := r.shutdown
				r.mu.Unlock()
				if stop {
					return
				}
				continue
			}
		}
		start := w.Tracker.VTime()
		w.noteQuery(task.Job.Query)
		w.Tracker.BeginMorselRead(task.Morsel.Home())
		w.execute(task)
		w.Tracker.EndMorselRead(task.Morsel.Home())
		r.D.trace.add(TraceEntry{
			Worker: w.ID, QueryID: task.Job.Query.ID, Query: task.Job.Query.Name,
			Job: task.Job.Name, StartNs: start, EndNs: w.Tracker.VTime(),
		})
		w.doneQuery(task.Job.Query)
		// Fold the morsel's counters before Complete: Complete may close
		// the query's Done, and a reader woken by it must see this morsel.
		prev = r.fold(w, prev)
		r.D.Complete(w, task)
		// Job Finalize hooks and successor Setup run inside Complete on
		// this worker and may charge its tracker again.
		prev = r.fold(w, prev)
	}
}

// fold adds the worker's tracker delta since prev to the pool counters
// (nothing when the tracker has not moved) and returns the new baseline.
func (r *RealRunner) fold(w *Worker, prev numa.Stats) numa.Stats {
	cur := w.Tracker.Stats()
	if cur != prev {
		r.counters.add(cur.Sub(prev))
	}
	return cur
}
