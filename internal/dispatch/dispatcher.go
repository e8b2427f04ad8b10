package dispatch

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/numa"
	"repro/internal/storage"
)

// DefaultMorselRows is the paper's recommended morsel size: "a morsel
// size of about 100,000 tuples yields a good tradeoff" (§3).
const DefaultMorselRows = 100_000

// Config controls the dispatcher's scheduling policies. The zero value is
// the paper's full-fledged configuration with all features on; the ablated
// configurations of Fig. 11 are produced by switching features off.
type Config struct {
	// Workers is the number of worker threads (default: all hardware
	// threads of the machine). Workers are pre-created and pinned to
	// hardware threads; parallelism is controlled purely by task
	// assignment (§3).
	Workers int
	// MorselRows is the default morsel size (DefaultMorselRows if 0).
	MorselRows int
	// NoLocality disables NUMA-aware assignment: morsels are handed
	// out regardless of where they live ("HyPer (not NUMA aware)").
	NoLocality bool
	// NoStealing disables cross-socket work stealing.
	NoStealing bool
	// NonAdaptive divides every pipeline into exactly one chunk per
	// worker (morsel size n/t), emulating plan-driven Volcano
	// parallelism as in §5.4.
	NonAdaptive bool
	// Trace records one entry per executed morsel (Fig. 13).
	Trace bool
}

// Dispatcher assigns (pipeline job, morsel) tasks to workers. Job-list
// changes (activation, completion) are rare and protected by a mutex; the
// hot path — cutting a morsel from an active job — is lock-free, as in
// the paper (§3.2).
type Dispatcher struct {
	Machine *numa.Machine
	Cfg     Config

	active  atomic.Pointer[[]*PipelineJob] // copy-on-write snapshot
	mu      sync.Mutex                     // guards activation/completion/submit
	queries map[int64]*Query

	pendingQueries atomic.Int64 // submitted, not finished

	// activations counts job activations; runners use it to know that
	// new work may have appeared for parked workers.
	activations atomic.Int64

	trace *Trace

	// onActivate is an optional runner hook invoked (with mu held)
	// whenever new morsels may have become available.
	onActivate func()
}

// NewDispatcher creates a dispatcher for the given machine model.
func NewDispatcher(m *numa.Machine, cfg Config) *Dispatcher {
	if cfg.Workers <= 0 {
		cfg.Workers = m.Topo.HardwareThreads()
	}
	if cfg.MorselRows <= 0 {
		cfg.MorselRows = DefaultMorselRows
	}
	d := &Dispatcher{Machine: m, Cfg: cfg, queries: make(map[int64]*Query)}
	empty := []*PipelineJob{}
	d.active.Store(&empty)
	if cfg.Trace {
		d.trace = &Trace{}
	}
	return d
}

// Trace returns the recorded morsel trace (nil unless Config.Trace).
func (d *Dispatcher) Trace() *Trace { return d.trace }

// Submit registers a query and activates its dependency-free pipelines.
func (d *Dispatcher) Submit(q *Query) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(q.jobs) == 0 {
		panic(fmt.Sprintf("dispatch: query %q has no pipelines", q.Name))
	}
	d.queries[q.ID] = q
	d.pendingQueries.Add(1)
	for _, j := range q.jobs {
		// An empty job completes inside activateLocked and activates its
		// successors there; they must not be activated again from here,
		// which would reset cursors a worker may already be cutting from.
		if j.deps.Load() == 0 && !j.activated.Load() {
			d.activateLocked(j, nil)
		}
	}
	d.notifyLocked()
}

// Cancel marks a query canceled. Running morsels finish; no new morsels
// of the query are handed out ("the marker is checked whenever a morsel
// of that query is finished", §3.2).
func (d *Dispatcher) Cancel(q *Query) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if q.canceled.Swap(true) {
		return
	}
	d.removeJobsLocked(q)
	if q.outstanding.Load() == 0 {
		d.finishQueryLocked(q)
	}
	d.notifyLocked()
}

func (d *Dispatcher) notifyLocked() {
	d.activations.Add(1)
	if d.onActivate != nil {
		d.onActivate()
	}
}

// activateLocked runs the job's Setup, builds its cursors, and publishes
// it to the active list. Empty jobs complete immediately — unless their
// stream is still open, in which case they stay active awaiting Feed.
func (d *Dispatcher) activateLocked(j *PipelineJob, w *Worker) {
	morsel := int64(d.Cfg.MorselRows)
	j.activate(d.Machine.Topo.Sockets, morsel)
	if d.Cfg.NonAdaptive && !j.streaming {
		// Plan-driven emulation: one static chunk per worker. Streaming
		// jobs keep the configured morsel size — their total is unknown
		// at activation.
		total := j.remainingRows.Load()
		chunk := (total + int64(d.Cfg.Workers) - 1) / int64(d.Cfg.Workers)
		if chunk < 1 {
			chunk = 1
		}
		j.morselRows = chunk
	}
	if !j.hasMorsels() {
		// Nothing to scan and nothing can arrive: complete immediately.
		d.completeJobLocked(j, w)
		return
	}
	cur := *d.active.Load()
	next := make([]*PipelineJob, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = j
	d.active.Store(&next)
}

// removeJobLocked unpublishes a job from the active snapshot.
func (d *Dispatcher) removeJobLocked(j *PipelineJob) {
	cur := *d.active.Load()
	next := make([]*PipelineJob, 0, len(cur))
	for _, a := range cur {
		if a != j {
			next = append(next, a)
		}
	}
	d.active.Store(&next)
}

func (d *Dispatcher) removeJobsLocked(q *Query) {
	cur := *d.active.Load()
	next := make([]*PipelineJob, 0, len(cur))
	for _, a := range cur {
		if a.Query != q {
			next = append(next, a)
		}
	}
	d.active.Store(&next)
}

// completeJobLocked finalizes a finished pipeline and advances the QEP
// state machine: successors whose dependencies are all met activate now.
func (d *Dispatcher) completeJobLocked(j *PipelineJob, w *Worker) {
	if j.completedOnce.Swap(true) {
		return
	}
	d.removeJobLocked(j)
	if j.Finalize != nil {
		j.Finalize(w)
	}
	q := j.Query
	for _, s := range j.succs {
		if s.deps.Add(-1) == 0 && !q.canceled.Load() {
			d.activateLocked(s, w)
		}
	}
	if q.remainingJobs.Add(-1) == 0 {
		d.finishQueryLocked(q)
	}
	d.notifyLocked()
}

// Feed hands stream partitions to a streaming job (see
// PipelineJob.Streaming). Safe to call from any goroutine, before or
// after Submit; partitions fed before activation are buffered and picked
// up by Setup time. Feeding a canceled or finished query is a no-op.
func (d *Dispatcher) Feed(j *PipelineJob, parts ...*storage.Partition) {
	if !j.streaming {
		panic(fmt.Sprintf("dispatch: Feed on non-streaming job %q", j.Name))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	q := j.Query
	if q.canceled.Load() || q.finished.Load() || j.completedOnce.Load() || !j.streamOpen.Load() {
		return
	}
	if !j.activated.Load() {
		j.pending = append(j.pending, parts...)
		return
	}
	if j.feed(parts, d.Machine.Topo.Sockets) > 0 {
		d.notifyLocked()
	}
}

// FinishStream closes a streaming job's stream: no further Feed calls
// are accepted, and once every fed morsel completed the job finalizes
// and its successors activate. Idempotent.
func (d *Dispatcher) FinishStream(j *PipelineJob) {
	if !j.streaming {
		panic(fmt.Sprintf("dispatch: FinishStream on non-streaming job %q", j.Name))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !j.streamOpen.Swap(false) {
		return
	}
	q := j.Query
	if q.canceled.Load() || q.finished.Load() {
		return
	}
	if j.activated.Load() && j.remainingRows.Load() == 0 && j.outstanding.Load() == 0 {
		d.completeJobLocked(j, nil)
	}
	d.notifyLocked()
}

func (d *Dispatcher) finishQueryLocked(q *Query) {
	if q.finished.Swap(true) {
		return
	}
	delete(d.queries, q.ID)
	d.pendingQueries.Add(-1)
	close(q.done)
}

// Pending reports whether unfinished queries exist.
func (d *Dispatcher) Pending() bool { return d.pendingQueries.Load() > 0 }

// PendingQueries returns the number of submitted, unfinished queries —
// the dispatcher's queue depth. Admission control layers poll this to
// bound concurrent in-flight work.
func (d *Dispatcher) PendingQueries() int64 { return d.pendingQueries.Load() }

// ActiveJobs returns the number of currently active pipeline jobs (jobs
// whose dependencies are met and that still have morsels or outstanding
// tasks).
func (d *Dispatcher) ActiveJobs() int { return len(*d.active.Load()) }

// Activations returns a counter that increases whenever new work may have
// appeared; parked workers compare it to re-check.
func (d *Dispatcher) Activations() int64 { return d.activations.Load() }

// Task is one unit of work: a pipeline job and the morsel to run it on.
type Task struct {
	Job    *PipelineJob
	Morsel storage.Morsel
}

// NextTask picks a task for the requesting worker, implementing the three
// goals of §3: (1) NUMA-locality — prefer morsels homed on the worker's
// socket, stealing from the closest socket when local work ran out;
// (2) elasticity — distribute workers over queries proportionally to
// priority, re-deciding at every morsel boundary; (3) load balancing —
// any idle worker takes any remaining morsel before the pipeline ends.
func (d *Dispatcher) NextTask(w *Worker) (Task, bool) {
	jobs := *d.active.Load()
	if len(jobs) == 0 {
		return Task{}, false
	}

	// Group jobs by query and order queries by fairness load
	// (activeWorkers / priority), preferring the worker's current
	// query on ties to avoid gratuitous migration.
	type cand struct {
		q    *Query
		load float64
		jobs []*PipelineJob
	}
	var cands []cand
	for _, j := range jobs {
		q := j.Query
		if q.canceled.Load() {
			continue
		}
		found := false
		for i := range cands {
			if cands[i].q == q {
				cands[i].jobs = append(cands[i].jobs, j)
				found = true
				break
			}
		}
		if !found {
			load := float64(q.activeWorkers.Load()) / float64(q.Priority)
			if q == w.lastQuery {
				load -= 0.5 / float64(q.Priority) // stickiness bonus
			}
			cands = append(cands, cand{q: q, load: load, jobs: []*PipelineJob{j}})
		}
	}
	// Insertion sort by load (few queries; determinism matters).
	for i := 1; i < len(cands); i++ {
		for k := i; k > 0 && (cands[k].load < cands[k-1].load ||
			(cands[k].load == cands[k-1].load && cands[k].q.ID < cands[k-1].q.ID)); k-- {
			cands[k], cands[k-1] = cands[k-1], cands[k]
		}
	}

	interleavedBucket := d.Machine.Topo.Sockets
	for _, c := range cands {
		for _, j := range c.jobs {
			if d.Cfg.NoLocality {
				// NUMA-oblivious: round-robin over buckets
				// starting at a rotating offset.
				n := d.Machine.Topo.Sockets + 1
				start := int(w.rr) % n
				w.rr++
				for k := 0; k < n; k++ {
					if t, ok := d.take(j, (start+k)%n); ok {
						return t, true
					}
				}
				continue
			}
			// Local first, then interleaved, then steal by
			// increasing distance.
			if t, ok := d.take(j, int(w.Socket())); ok {
				return t, true
			}
			if t, ok := d.take(j, interleavedBucket); ok {
				return t, true
			}
			if d.Cfg.NoStealing {
				continue
			}
			for _, s := range d.Machine.Topo.SocketsByDistance(w.Socket())[1:] {
				if t, ok := d.take(j, int(s)); ok {
					return t, true
				}
			}
		}
	}
	return Task{}, false
}

// take cuts one morsel and re-checks cancellation AFTER the cut's
// outstanding counters are visible. This closes the race where a worker
// holding a stale active-jobs snapshot cuts a morsel of a query that
// Cancel already finished (outstanding was 0 at its check): either the
// cut's increment is visible to Cancel — which then defers finishing to
// us — or cancellation is visible here and the cut is undone. Any
// worker that passed this check before the cancel marker was set simply
// runs its morsel to completion, the paper's cancellation granularity.
func (d *Dispatcher) take(j *PipelineJob, bucket int) (Task, bool) {
	m, ok := j.tryCut(bucket)
	if !ok {
		return Task{}, false
	}
	q := j.Query
	if q.canceled.Load() {
		// Undo the cut. The morsel's rows are not returned to the
		// cursor — the job is unpublished and will never run again.
		j.outstanding.Add(-1)
		if q.outstanding.Add(-1) == 0 {
			d.mu.Lock()
			d.finishQueryLocked(q)
			d.notifyLocked()
			d.mu.Unlock()
		}
		return Task{}, false
	}
	return Task{Job: j, Morsel: m}, true
}

// Complete reports a finished morsel. If it was the job's last one, the
// QEP state machine advances — executed on this worker's core, exactly as
// in the paper ("this state machine is executed on the otherwise unused
// core of the worker thread", §3.2).
func (d *Dispatcher) Complete(w *Worker, t Task) {
	j := t.Job
	q := j.Query
	jobOut := j.outstanding.Add(-1)
	queryOut := q.outstanding.Add(-1)
	if q.canceled.Load() {
		if queryOut == 0 {
			d.mu.Lock()
			d.finishQueryLocked(q)
			d.notifyLocked()
			d.mu.Unlock()
		}
		return
	}
	if jobOut == 0 && !j.hasMorsels() {
		d.mu.Lock()
		// Re-check under the lock; another worker may have raced. Read
		// hasMorsels first: tryCut raises outstanding before it lowers
		// remainingRows, so "no rows left" seen first guarantees every
		// cut is already counted in outstanding.
		if !j.hasMorsels() && j.outstanding.Load() == 0 {
			d.completeJobLocked(j, w)
		}
		d.mu.Unlock()
	}
}
