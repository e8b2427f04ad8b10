package storage

import (
	"testing"
	"testing/quick"

	"repro/internal/numa"
)

func testSchema() Schema {
	return Schema{
		{Name: "id", Type: I64},
		{Name: "price", Type: F64},
		{Name: "name", Type: Str},
	}
}

func TestColumnAppendAndLen(t *testing.T) {
	c := NewColumn("id", I64)
	for i := int64(0); i < 10; i++ {
		c.AppendI64(i)
	}
	if c.Len() != 10 {
		t.Fatalf("Len = %d, want 10", c.Len())
	}
	if c.Ints[7] != 7 {
		t.Fatalf("Ints[7] = %d", c.Ints[7])
	}
}

func TestColumnWidths(t *testing.T) {
	ci := NewColumn("id", I64)
	ci.AppendI64(1)
	if ci.AvgWidth() != 8 {
		t.Errorf("int width = %f, want 8", ci.AvgWidth())
	}
	cs := NewColumn("name", Str)
	cs.AppendStr("abcd")     // 4 bytes payload
	cs.AppendStr("efghijkl") // 8 bytes payload
	want := 16 + 6.0         // header + avg payload
	if cs.AvgWidth() != want {
		t.Errorf("str width = %f, want %f", cs.AvgWidth(), want)
	}
	if got := cs.BytesRange(0, 2); got != int64(2*want) {
		t.Errorf("BytesRange = %d, want %d", got, int64(2*want))
	}
	if cs.BytesRange(2, 2) != 0 {
		t.Errorf("empty range should be 0 bytes")
	}
}

func TestColumnGrow(t *testing.T) {
	for _, typ := range []ColType{I64, F64, Str} {
		c := NewColumn("c", typ)
		c.Grow(100)
		switch typ {
		case I64:
			if cap(c.Ints) < 100 {
				t.Errorf("cap = %d", cap(c.Ints))
			}
		case F64:
			if cap(c.Flts) < 100 {
				t.Errorf("cap = %d", cap(c.Flts))
			}
		case Str:
			if cap(c.Strs) < 100 {
				t.Errorf("cap = %d", cap(c.Strs))
			}
		}
	}
}

func TestSchemaIndex(t *testing.T) {
	s := testSchema()
	if s.Index("price") != 1 {
		t.Errorf("Index(price) = %d", s.Index("price"))
	}
	if s.Index("missing") != -1 {
		t.Errorf("Index(missing) = %d", s.Index("missing"))
	}
	defer func() {
		if recover() == nil {
			t.Error("MustIndex should panic on unknown column")
		}
	}()
	s.MustIndex("missing")
}

func TestBuilderHashPartitioning(t *testing.T) {
	const n = 10000
	b := NewBuilder("t", testSchema(), 16, "id")
	for i := int64(0); i < n; i++ {
		b.Append(Row{i, float64(i) * 1.5, "row"})
	}
	tbl := b.Build(NUMAAware, 4)
	if tbl.Rows() != n {
		t.Fatalf("Rows = %d, want %d", tbl.Rows(), n)
	}
	if len(tbl.Parts) != 16 {
		t.Fatalf("parts = %d, want 16", len(tbl.Parts))
	}
	// Hash partitioning must be reasonably even.
	for i, p := range tbl.Parts {
		if p.Rows() < n/16/2 || p.Rows() > n/16*2 {
			t.Errorf("partition %d badly skewed: %d rows", i, p.Rows())
		}
	}
	// Same key must always land in the same partition.
	for k := int64(0); k < 100; k++ {
		p1 := PartitionOfKey(k, 16)
		p2 := PartitionOfKey(k, 16)
		if p1 != p2 {
			t.Fatalf("PartitionOfKey not deterministic")
		}
	}
	// Multiset preservation: ids across partitions = inserted ids.
	seen := make(map[int64]int)
	for _, p := range tbl.Parts {
		for _, v := range p.Cols[0].Ints {
			seen[v]++
		}
	}
	if len(seen) != n {
		t.Fatalf("distinct ids = %d, want %d", len(seen), n)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("id %d appears %d times", k, c)
		}
	}
}

func TestBuilderRoundRobin(t *testing.T) {
	b := NewBuilder("t", testSchema(), 4, "")
	for i := int64(0); i < 8; i++ {
		b.Append(Row{i, 0.0, ""})
	}
	tbl := b.Build(NUMAAware, 4)
	for i, p := range tbl.Parts {
		if p.Rows() != 2 {
			t.Errorf("partition %d has %d rows, want 2", i, p.Rows())
		}
	}
}

func TestPlacementPolicies(t *testing.T) {
	b := NewBuilder("t", testSchema(), 8, "id")
	for i := int64(0); i < 100; i++ {
		b.Append(Row{i, 0.0, ""})
	}
	aware := b.Build(NUMAAware, 4)
	homes := map[numa.SocketID]int{}
	for _, p := range aware.Parts {
		homes[p.Home]++
	}
	if len(homes) != 4 {
		t.Errorf("NUMA-aware placement uses %d sockets, want 4", len(homes))
	}

	osdef := aware.WithPlacement(OSDefault, 4)
	for _, p := range osdef.Parts {
		if p.Home != 0 {
			t.Errorf("OS-default partition on socket %d", p.Home)
		}
	}
	inter := aware.WithPlacement(Interleaved, 4)
	for _, p := range inter.Parts {
		if p.Home != numa.NoSocket {
			t.Errorf("interleaved partition on socket %d", p.Home)
		}
	}
	// Data must be shared, not copied.
	if &aware.Parts[0].Cols[0].Ints[0] != &osdef.Parts[0].Cols[0].Ints[0] {
		t.Error("WithPlacement copied column data")
	}
}

func TestBuilderStringKeyPartitioning(t *testing.T) {
	schema := Schema{{Name: "k", Type: Str}}
	b := NewBuilder("t", schema, 4, "k")
	b.Append(Row{"alpha"})
	b.Append(Row{"alpha"})
	tbl := b.Build(NUMAAware, 4)
	// Both copies of the same key land in the same partition.
	nonEmpty := 0
	for _, p := range tbl.Parts {
		if p.Rows() > 0 {
			nonEmpty++
			if p.Rows() != 2 {
				t.Errorf("expected both rows together, got %d", p.Rows())
			}
		}
	}
	if nonEmpty != 1 {
		t.Errorf("same key split across %d partitions", nonEmpty)
	}
}

func TestAreaSetRefragmentation(t *testing.T) {
	schema := Schema{{Name: "v", Type: I64}}
	set := NewAreaSet(schema, 4)
	// Workers 0 and 2 write; 1 and 3 stay idle.
	a0 := set.ForWorker(0, 0)
	for i := int64(0); i < 5; i++ {
		a0.Cols[0].AppendI64(i)
	}
	a2 := set.ForWorker(2, 1)
	for i := int64(5); i < 8; i++ {
		a2.Cols[0].AppendI64(i)
	}
	if set.TotalRows() != 8 {
		t.Fatalf("TotalRows = %d, want 8", set.TotalRows())
	}
	parts := set.Partitions()
	if len(parts) != 2 {
		t.Fatalf("partitions = %d, want 2 (idle workers excluded)", len(parts))
	}
	if parts[0].Home != 0 || parts[1].Home != 1 {
		t.Errorf("partition homes = %d,%d", parts[0].Home, parts[1].Home)
	}
	tbl := set.Table("tmp")
	if tbl.Rows() != 8 {
		t.Errorf("table rows = %d", tbl.Rows())
	}
	// ForWorker must return the same area on repeat calls.
	if set.ForWorker(0, 0) != a0 {
		t.Error("ForWorker not idempotent")
	}
}

func TestPartitionBytesRange(t *testing.T) {
	schema := testSchema()
	set := NewAreaSet(schema, 1)
	a := set.ForWorker(0, 0)
	for i := int64(0); i < 10; i++ {
		a.Cols[0].AppendI64(i)
		a.Cols[1].AppendF64(1.0)
		a.Cols[2].AppendStr("xxxx")
	}
	p := set.Partitions()[0]
	// Reading only the int column: 8 bytes * 10 rows.
	if got := p.BytesRange(0, 10, []int{0}); got != 80 {
		t.Errorf("BytesRange int = %d, want 80", got)
	}
	// int + float.
	if got := p.BytesRange(0, 10, []int{0, 1}); got != 160 {
		t.Errorf("BytesRange int+float = %d, want 160", got)
	}
}

func TestPartitionOfKeyProperty(t *testing.T) {
	f := func(key int64, nparts uint8) bool {
		n := int(nparts%63) + 1
		p := PartitionOfKey(key, n)
		return p >= 0 && p < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMorsel(t *testing.T) {
	schema := Schema{{Name: "v", Type: I64}}
	set := NewAreaSet(schema, 1)
	a := set.ForWorker(0, 2)
	for i := int64(0); i < 100; i++ {
		a.Cols[0].AppendI64(i)
	}
	p := set.Partitions()[0]
	m := Morsel{Part: p, Begin: 10, End: 30}
	if m.Rows() != 20 {
		t.Errorf("Rows = %d", m.Rows())
	}
	if m.Home() != 2 {
		t.Errorf("Home = %d", m.Home())
	}
}

// TestColumnExtend: Extend adds zero values whatever the spare capacity
// held, doubles the capacity from the first request, and SetStr keeps the
// byte count AvgWidth reads equal to what AppendStr would have made it.
func TestColumnExtend(t *testing.T) {
	c := NewColumn("v", I64)
	if at := c.Extend(25); at != 0 || len(c.Ints) != 25 || cap(c.Ints) != 25 {
		t.Fatalf("first Extend: at %d, len %d, cap %d; want 0, 25, 25", at, len(c.Ints), cap(c.Ints))
	}
	grows := 0
	for i := 0; i < 1000; i++ {
		before := cap(c.Ints)
		at := c.Extend(25)
		for j := range 25 {
			if c.Ints[at+j] != 0 {
				t.Fatalf("Extend left %d at row %d", c.Ints[at+j], at+j)
			}
			c.Ints[at+j] = -1
		}
		if cap(c.Ints) != before {
			grows++
		}
	}
	if grows > 10 || cap(c.Ints) > 2*len(c.Ints) {
		t.Errorf("%d rows took %d grows to capacity %d", len(c.Ints), grows, cap(c.Ints))
	}
	c.Ints = c.Ints[:10] // spare capacity now holds written values
	if at := c.Extend(5); c.Ints[at] != 0 || c.Ints[at+4] != 0 {
		t.Errorf("Extend over used capacity kept old values: %v", c.Ints[at:])
	}

	set, app := NewColumn("s", Str), NewColumn("s", Str)
	words := []string{"", "abc", "a longer payload", "xy"}
	at := set.Extend(len(words))
	for j, w := range words {
		set.SetStr(at+j, w)
		set.SetStr(at+j, w+w) // an overwrite replaces the old count
		app.AppendStr(w + w)
	}
	if set.AvgWidth() != app.AvgWidth() || set.Len() != app.Len() {
		t.Errorf("SetStr: width %v over %d rows, AppendStr: %v over %d", set.AvgWidth(), set.Len(), app.AvgWidth(), app.Len())
	}
}
