package server

import (
	"context"
	"sync"
	"testing"

	"repro/internal/colstore"
)

// TestSnapshotWhileQuerying seals the registered tables while queries
// run against them. Sealing must never write into live partitions —
// EncodeTable once built zone maps in place, racing with concurrent
// scan compilation — so this test runs under -race and then checks
// that the live tables are byte-for-byte unaffected while the sealed
// snapshot still restores with zone maps.
func TestSnapshotWhileQuerying(t *testing.T) {
	s, _, _ := newTestServer(30_000, Config{MaxConcurrent: 4})
	defer s.Close()
	dir := t.TempDir()
	s.EnableSnapshots(dir, "unit", colstore.Options{SegRows: 1024})

	var wg sync.WaitGroup
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := s.Submit(context.Background(), &Request{SQL: sqlCountOrders}); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Snapshot(); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
	}
	wg.Wait()

	_, tabs, err := colstore.ReadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("restored %d tables, want 2", len(tabs))
	}
	for _, tab := range tabs {
		if !tab.HasZoneMaps() {
			t.Errorf("restored %q lacks zone maps", tab.Name)
		}
	}
	for _, name := range []string{"orders", "customers"} {
		live, ok := s.Table(name)
		if !ok {
			t.Fatalf("table %q missing", name)
		}
		for pi, p := range live.Parts {
			if p.Segs != nil {
				t.Fatalf("%s partition %d gained zone maps from sealing a live table", name, pi)
			}
		}
	}
}
