package exchange

import (
	"bytes"
	"testing"

	"repro/internal/storage"
)

func buildKeyed(name string, nparts int, keys []int64) *storage.Table {
	b := storage.NewBuilder(name, storage.Schema{{Name: "k", Type: storage.I64}}, nparts, "k")
	for _, k := range keys {
		b.Append(storage.Row{k})
	}
	return b.Build(storage.NUMAAware, 2)
}

// TestShardViewsPartitionTheTable checks the mod-N views are a disjoint
// cover and that row ownership agrees with OwnerOfKey — the invariant
// hash-partition routing relies on.
func TestShardViewsPartitionTheTable(t *testing.T) {
	keys := make([]int64, 0, 1000)
	for i := int64(0); i < 1000; i++ {
		keys = append(keys, i*7)
	}
	tab := buildKeyed("t", 32, keys)
	const n = 3
	total := 0
	for node := 0; node < n; node++ {
		v, err := ShardView(tab, node, n)
		if err != nil {
			t.Fatal(err)
		}
		if v.PartKey != "k" {
			t.Fatalf("view lost PartKey: %q", v.PartKey)
		}
		total += v.Rows()
		for _, p := range v.Parts {
			for _, k := range p.Cols[0].Ints {
				if own := OwnerOfKey(k, 32, n); own != node {
					t.Fatalf("key %d in shard %d but OwnerOfKey says %d", k, node, own)
				}
			}
		}
	}
	if total != len(keys) {
		t.Fatalf("shards cover %d rows, want %d", total, len(keys))
	}
}

// TestShardCoPartition pins the property distributed co-located joins
// depend on: two tables partitioned on the join key with the same
// partition count put matching keys on the same node.
func TestShardCoPartition(t *testing.T) {
	keys := []int64{1, 5, 99, 1234, 777777, 42}
	a := buildKeyed("a", 16, keys)
	b := buildKeyed("b", 16, keys)
	const n = 2
	for node := 0; node < n; node++ {
		va, err := ShardView(a, node, n)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := ShardView(b, node, n)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]int{}
		for _, p := range va.Parts {
			for _, k := range p.Cols[0].Ints {
				seen[k]++
			}
		}
		for _, p := range vb.Parts {
			for _, k := range p.Cols[0].Ints {
				seen[k]--
			}
		}
		for k, d := range seen {
			if d != 0 {
				t.Fatalf("node %d: key %d present on only one side", node, k)
			}
		}
	}
}

func TestShardViewRejectsUnpartitioned(t *testing.T) {
	b := storage.NewBuilder("rr", storage.Schema{{Name: "k", Type: storage.I64}}, 4, "")
	b.Append(storage.Row{int64(1)})
	tab := b.Build(storage.NUMAAware, 1)
	if _, err := ShardView(tab, 0, 2); err == nil {
		t.Fatal("round-robin table sharded without error")
	}

	sb := storage.NewBuilder("s", storage.Schema{{Name: "name", Type: storage.Str}}, 4, "name")
	sb.Append(storage.Row{"x"})
	st := sb.Build(storage.NUMAAware, 1)
	if _, err := ShardView(st, 0, 2); err == nil {
		t.Fatal("string-keyed table sharded without error")
	}
}

func TestParseCluster(t *testing.T) {
	c, err := ParseCluster(1, "http://a:1, http://b:2,")
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 2 || c.Nodes[1] != "http://b:2" {
		t.Fatalf("parsed %+v", c)
	}
	if got := c.Peers(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("peers %v", got)
	}
	if _, err := ParseCluster(0, "http://solo:1"); err == nil {
		t.Fatal("single-node cluster accepted")
	}
	if _, err := ParseCluster(5, "http://a:1,http://b:2"); err == nil {
		t.Fatal("out-of-range self accepted")
	}
	if _, err := ParseCluster(0, "http://a:1,http://a:1"); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, err := ParseCluster(0, "a:1,b:2"); err == nil {
		t.Fatal("non-http node accepted")
	}
}

// TestInboxAccumulates: partitions from every sender reach the bound
// sink with the senders' schema, and a sender whose schema disagrees
// with the first one poisons the inbox.
func TestInboxAccumulates(t *testing.T) {
	ib := NewStreamInbox(2, 3)
	sink := newCollectSink()
	ib.Bind(sink)
	send := func(sender int, schema storage.Schema, rows [][]any) error {
		var buf bytes.Buffer
		w := NewWriter(&buf, schema)
		if len(rows) > 0 {
			if err := w.WritePartition(buildPartition(schema, rows), 2); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.WriteEnd(); err != nil {
			t.Fatal(err)
		}
		return ib.ReceiveFrom(sender, &buf)
	}
	if err := send(0, testSchema, [][]any{{int64(1), 1.0, "a"}, {int64(2), 2.0, "b"}, {int64(3), 3.0, "c"}}); err != nil {
		t.Fatal(err)
	}
	if err := send(1, testSchema, [][]any{{int64(4), 4.0, "d"}}); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	rows, cols := sink.rows, sink.cols
	sink.mu.Unlock()
	if rows != 4 {
		t.Fatalf("sink has %d rows, want 4", rows)
	}
	if len(cols) != 3 || cols[0] != "k" {
		t.Fatalf("sink columns %v", cols)
	}

	// Mismatching sender schema must be rejected.
	if err := send(2, storage.Schema{{Name: "other", Type: storage.I64}}, nil); err == nil {
		t.Fatal("schema mismatch accepted")
	}
	if err := sink.wait(t); err == nil {
		t.Fatal("sink closed cleanly after a schema mismatch")
	}
}
