package dispatch

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/numa"
)

// TestSharedRunnerConcurrentSubmit drives one long-lived RealRunner the
// way a query server does: many goroutines submit queries (mixed
// priorities) concurrently against an already-started pool, wait on
// their own Done channels, and more submissions keep arriving while
// earlier queries run. Verifies results, the queue-depth hooks, and the
// race-safe pool counters.
func TestSharedRunnerConcurrentSubmit(t *testing.T) {
	m := numa.NehalemEXMachine()
	d := NewDispatcher(m, Config{Workers: 8})
	r := NewRealRunner(d)
	r.Start()
	defer r.Stop()

	const clients = 4
	const queriesPerClient = 6
	var wg sync.WaitGroup
	var bad atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < queriesPerClient; i++ {
				var total atomic.Int64
				q := sumJob("shared", makeParts(4, 5000, 4), 500, &total)
				q.Priority = 1 + (c+i)%3
				d.Submit(q)
				<-q.Done()
				if total.Load() != expectedSum(4, 5000) {
					bad.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d of %d concurrent queries returned a wrong sum", n, clients*queriesPerClient)
	}
	if got := d.PendingQueries(); got != 0 {
		t.Errorf("PendingQueries = %d after all queries finished, want 0", got)
	}
	if got := d.ActiveJobs(); got != 0 {
		t.Errorf("ActiveJobs = %d after all queries finished, want 0", got)
	}
	// No Stop first: a worker folds a morsel's counters before the
	// Complete that may close the query's Done, so the totals are exact
	// as soon as the last Done has fired.
	st := r.Stats()
	// 4 parts * 5000 rows / 500-row morsels = 40 tasks per query.
	wantTasks := int64(clients * queriesPerClient * 40)
	if st.Tasks != wantTasks {
		t.Errorf("pool Tasks = %d, want %d", st.Tasks, wantTasks)
	}
	if st.ReadBytes <= 0 {
		t.Errorf("pool ReadBytes = %d, want > 0", st.ReadBytes)
	}
}

// TestSharedRunnerCancelWhileRunning cancels queries mid-flight on a
// shared pool and checks the pool keeps serving others.
func TestSharedRunnerCancelWhileRunning(t *testing.T) {
	m := numa.NehalemEXMachine()
	d := NewDispatcher(m, Config{Workers: 8})
	r := NewRealRunner(d)
	r.Start()
	defer r.Stop()

	var survivorSum atomic.Int64
	survivor := sumJob("survivor", makeParts(8, 20000, 4), 500, &survivorSum)
	d.Submit(survivor)

	var victimSum atomic.Int64
	victim := sumJob("victim", makeParts(8, 20000, 4), 500, &victimSum)
	d.Submit(victim)
	d.Cancel(victim)
	<-victim.Done()
	if !victim.Canceled() {
		t.Error("victim not marked canceled")
	}

	<-survivor.Done()
	if survivorSum.Load() != expectedSum(8, 20000) {
		t.Errorf("survivor sum = %d, want %d", survivorSum.Load(), expectedSum(8, 20000))
	}
}
