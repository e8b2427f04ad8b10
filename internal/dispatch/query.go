// Package dispatch implements the paper's dispatcher (§3): pipeline jobs
// whose morsels are cut on demand from per-socket storage-area boundaries
// with lock-free atomic cursors, NUMA-local task assignment with
// distance-ordered work stealing, a passive QEP state machine that
// activates pipelines when their dependencies finish, fully elastic
// inter-query scheduling, and query cancellation at morsel boundaries.
//
// Two runners execute the same dispatcher: RealRunner uses one goroutine
// per simulated hardware thread, SimRunner is a deterministic
// discrete-event loop in virtual time (see DESIGN.md for why both exist).
package dispatch

import (
	"sync/atomic"

	"repro/internal/numa"
	"repro/internal/storage"
)

// Query is a QEP object: it owns the pipelines of one query and the
// passive state machine that releases them to the dispatcher as their
// data dependencies complete (§2, §3.2).
type Query struct {
	ID       int64
	Name     string
	Priority int // share weight for elastic scheduling; >= 1

	jobs          []*PipelineJob
	remainingJobs atomic.Int32
	outstanding   atomic.Int64 // tasks handed out, not yet completed
	canceled      atomic.Bool
	finished      atomic.Bool
	activeWorkers atomic.Int32 // workers currently executing a task of this query

	// StartV/EndV are virtual timestamps filled by SimRunner.
	StartV, EndV float64

	done chan struct{}
}

var queryIDs atomic.Int64

// NewQuery creates an empty query with the given display name.
func NewQuery(name string) *Query {
	return &Query{
		ID:       queryIDs.Add(1),
		Name:     name,
		Priority: 1,
		done:     make(chan struct{}),
	}
}

// Done returns a channel closed when the query finishes or is canceled.
func (q *Query) Done() <-chan struct{} { return q.done }

// Canceled reports whether the query was canceled.
func (q *Query) Canceled() bool { return q.canceled.Load() }

// Jobs returns the query's pipeline jobs in creation order.
func (q *Query) Jobs() []*PipelineJob { return q.jobs }

// PipelineJob is one executable pipeline: a morsel-wise task Run over the
// partitions produced by Setup, with per-socket atomic cursors cutting
// morsels on demand.
type PipelineJob struct {
	Query *Query
	Name  string

	// MorselRows is the number of tuples per morsel (~100k in the
	// paper). 0 uses the dispatcher default. In non-adaptive mode the
	// dispatcher overrides it with n/t at activation (§5.4).
	MorselRows int

	// Setup returns the input partitions. It runs at activation time,
	// after all dependencies finished, so it can inspect their results
	// (e.g. phase 2 of a hash-join build scans the areas phase 1
	// filled and sizes the hash table perfectly).
	Setup func() []*storage.Partition

	// Run executes the whole pipeline on one morsel.
	Run func(w *Worker, m storage.Morsel)

	// Finalize runs exactly once, on the worker that completed the
	// job's last morsel, before successors are activated.
	Finalize func(w *Worker)

	deps  atomic.Int32
	succs []*PipelineJob

	// Streaming state: a stream-fed job (see Streaming) receives its
	// partitions incrementally via Dispatcher.Feed instead of all at
	// once from Setup, and completes only after Dispatcher.FinishStream
	// closed the stream and every fed morsel ran.
	streaming  bool
	streamOpen atomic.Bool
	pending    []*storage.Partition // fed before activation; guarded by the dispatcher lock

	// Scheduling state, valid after activation. The cursor buckets live
	// behind an atomic pointer so Feed can append partitions
	// copy-on-write while workers cut morsels lock-free.
	cursors       atomic.Pointer[[][]*partCursor] // [socket] -> cursors; index Sockets = interleaved
	remainingRows atomic.Int64
	outstanding   atomic.Int64
	morselRows    int64
	activated     atomic.Bool
	completedOnce atomic.Bool
}

// partCursor is the atomic "cut-out" cursor over one partition (§3.2: we
// maintain storage area boundaries and segment them into morsels on
// demand).
type partCursor struct {
	part *storage.Partition
	next atomic.Int64
	rows int64
}

// AddJob appends a pipeline job to the query.
func (q *Query) AddJob(name string, setup func() []*storage.Partition, run func(w *Worker, m storage.Morsel)) *PipelineJob {
	j := &PipelineJob{Query: q, Name: name, Setup: setup, Run: run}
	q.jobs = append(q.jobs, j)
	q.remainingJobs.Add(1)
	return j
}

// After declares that j may only start when all listed jobs finished.
func (j *PipelineJob) After(preds ...*PipelineJob) *PipelineJob {
	for _, p := range preds {
		if p.Query != j.Query {
			panic("dispatch: cross-query pipeline dependency")
		}
		j.deps.Add(1)
		p.succs = append(p.succs, j)
	}
	return j
}

// WithFinalize sets the job's finalize hook.
func (j *PipelineJob) WithFinalize(f func(w *Worker)) *PipelineJob {
	j.Finalize = f
	return j
}

// WithMorselRows overrides the morsel size for this job.
func (j *PipelineJob) WithMorselRows(n int) *PipelineJob {
	j.MorselRows = n
	return j
}

// Streaming marks the job as stream-fed: its input partitions arrive
// incrementally via Dispatcher.Feed (Setup, if any, provides the initial
// batch) and the job stays runnable — morsels are cut and executed as
// they arrive — until Dispatcher.FinishStream closes the stream and all
// fed morsels completed. This is how exchange inboxes hand decoded
// frames straight to the dispatcher without a stage barrier.
func (j *PipelineJob) Streaming() *PipelineJob {
	j.streaming = true
	j.streamOpen.Store(true)
	return j
}

// appendCursors buckets parts by NUMA home into dst (index `sockets` is
// the interleaved bucket), skipping empty partitions, and returns the
// total row count added.
func appendCursors(dst [][]*partCursor, parts []*storage.Partition, sockets int) int64 {
	var total int64
	for _, p := range parts {
		rows := int64(p.Rows())
		if rows == 0 {
			continue
		}
		total += rows
		c := &partCursor{part: p, rows: rows}
		idx := sockets // interleaved bucket
		if p.Home != numa.NoSocket {
			idx = int(p.Home)
		}
		dst[idx] = append(dst[idx], c)
	}
	return total
}

// activate builds the job's cursors. Called with the dispatcher lock held.
func (j *PipelineJob) activate(sockets int, morselRows int64) {
	j.activated.Store(true)
	var parts []*storage.Partition
	if j.Setup != nil {
		parts = j.Setup()
	}
	cur := make([][]*partCursor, sockets+1)
	total := appendCursors(cur, parts, sockets)
	total += appendCursors(cur, j.pending, sockets) // stream partitions fed before activation
	j.pending = nil
	j.remainingRows.Store(total)
	j.cursors.Store(&cur)
	j.morselRows = morselRows
	if j.MorselRows > 0 {
		j.morselRows = int64(j.MorselRows)
	}
	if j.morselRows <= 0 {
		j.morselRows = 1
	}
}

// feed appends stream partitions copy-on-write after activation. Called
// with the dispatcher lock held; concurrent lock-free readers see either
// the old or the new snapshot (cursor objects are shared, so a morsel is
// never cut twice).
func (j *PipelineJob) feed(parts []*storage.Partition, sockets int) int64 {
	cur := *j.cursors.Load()
	next := make([][]*partCursor, len(cur))
	for i := range cur {
		next[i] = append([]*partCursor(nil), cur[i]...)
	}
	total := appendCursors(next, parts, sockets)
	if total == 0 {
		return 0
	}
	j.remainingRows.Add(total)
	j.cursors.Store(&next)
	return total
}

// tryCut attempts to cut one morsel from the given socket's cursor list
// (or the interleaved list when socket == len(cursors)-1). Lock-free.
func (j *PipelineJob) tryCut(bucket int) (storage.Morsel, bool) {
	cs := j.cursors.Load()
	if cs == nil || bucket < 0 || bucket >= len(*cs) {
		return storage.Morsel{}, false
	}
	for _, c := range (*cs)[bucket] {
		for {
			cur := c.next.Load()
			if cur >= c.rows {
				break
			}
			end := cur + j.morselRows
			if end > c.rows {
				end = c.rows
			}
			if c.next.CompareAndSwap(cur, end) {
				// Raise outstanding before lowering remainingRows:
				// a concurrent Complete that reads remainingRows == 0
				// must already see this morsel as handed out, or it
				// would finish the job before the morsel ran.
				j.outstanding.Add(1)
				j.Query.outstanding.Add(1)
				j.remainingRows.Add(-(end - cur))
				return storage.Morsel{Part: c.part, Begin: int(cur), End: int(end)}, true
			}
		}
	}
	return storage.Morsel{}, false
}

// hasMorsels reports whether the job may still produce morsels: uncut
// rows exist, or its stream is still open (more may arrive).
func (j *PipelineJob) hasMorsels() bool {
	return j.remainingRows.Load() > 0 || (j.streaming && j.streamOpen.Load())
}

// hasLocalMorsels reports whether the bucket has uncut rows.
func (j *PipelineJob) hasLocalMorsels(bucket int) bool {
	cs := j.cursors.Load()
	if cs == nil || bucket < 0 || bucket >= len(*cs) {
		return false
	}
	for _, c := range (*cs)[bucket] {
		if c.next.Load() < c.rows {
			return true
		}
	}
	return false
}
