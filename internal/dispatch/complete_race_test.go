package dispatch

import (
	"sync/atomic"
	"testing"

	"repro/internal/numa"
	"repro/internal/storage"
)

// TestJobCompletesOnlyAfterItsLastMorsel is the regression test for the
// early-completion race: tryCut used to lower remainingRows before it
// raised outstanding, so a Complete on another worker could observe "no
// rows left, nothing outstanding" while the job's last morsel was cut but
// not yet counted, and finish the job — and the query — before that
// morsel ran. Chains of tiny two-morsel jobs on real workers make the
// window hit often; every successor's Setup (which runs at activation,
// after the predecessor completed) and the query's Done assert that all
// rows before them were seen.
func TestJobCompletesOnlyAfterItsLastMorsel(t *testing.T) {
	const (
		queries   = 800
		chain     = 40
		jobRows   = 2
		workers   = 4
		inFlight  = 4
		totalRows = chain * jobRows
	)
	rounds := 6
	if testing.Short() {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		d := NewDispatcher(numa.NehalemEXMachine(), Config{Workers: workers})
		r := NewRealRunner(d)
		r.Start()
		var early atomic.Int64
		sem := make(chan struct{}, inFlight)
		done := make(chan struct{}, queries)
		for qi := 0; qi < queries; qi++ {
			sem <- struct{}{}
			seen := new(atomic.Int64)
			q := NewQuery("chain")
			var prev *PipelineJob
			for k := 0; k < chain; k++ {
				before := int64(k * jobRows)
				parts := makeParts(1, jobRows, 1)
				j := q.AddJob("step",
					func() []*storage.Partition {
						if seen.Load() != before {
							early.Add(1)
						}
						return parts
					},
					func(w *Worker, m storage.Morsel) { seen.Add(int64(m.Rows())) }).WithMorselRows(1)
				if prev != nil {
					j.After(prev)
				}
				prev = j
			}
			d.Submit(q)
			go func() {
				<-q.Done()
				if seen.Load() != totalRows {
					early.Add(1)
				}
				<-sem
				done <- struct{}{}
			}()
		}
		for i := 0; i < queries; i++ {
			<-done
		}
		r.Stop()
		if n := early.Load(); n != 0 {
			t.Fatalf("round %d: %d jobs or queries completed before their last morsel ran", round, n)
		}
	}
}

// TestEmptyJobActivatesSuccessorOnce: an empty job completes inside its
// own activation and activates its successors from there. Submit, still
// walking the job list, used to find those successors with no open
// dependency and activate them a second time — a second Setup and fresh
// cursors over the whole input, so a worker that had already cut a morsel
// from the first cursors ran that morsel twice (about once in a thousand
// runs of a join with an empty build side; the rows came out doubled).
func TestEmptyJobActivatesSuccessorOnce(t *testing.T) {
	d := NewDispatcher(numa.NehalemEXMachine(), Config{Workers: 1})
	q := NewQuery("empty-first")
	var setups, rows atomic.Int64
	empty := q.AddJob("empty", func() []*storage.Partition { return nil }, func(*Worker, storage.Morsel) {})
	parts := makeParts(1, 100, 1)
	q.AddJob("successor",
		func() []*storage.Partition { setups.Add(1); return parts },
		func(w *Worker, m storage.Morsel) { rows.Add(int64(m.Rows())) }).After(empty)
	NewRealRunner(d).RunToCompletion(q)
	if setups.Load() != 1 || rows.Load() != 100 {
		t.Fatalf("successor of an empty job: Setup ran %d times over %d rows, want once over 100", setups.Load(), rows.Load())
	}
}
