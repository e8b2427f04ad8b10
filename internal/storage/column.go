// Package storage implements the columnar, NUMA-partitioned storage layer
// the engine runs on: typed columns, tables hash-partitioned across
// sockets (§4.3 of the paper), morsels, and per-worker NUMA-local storage
// areas for intermediate results (§2).
package storage

import (
	"fmt"

	"repro/internal/numa"
)

// ColType is the physical type of a column.
type ColType uint8

const (
	// I64 holds 64-bit integers; dates are stored as days since
	// 1970-01-01 in an I64 column.
	I64 ColType = iota
	// F64 holds 64-bit floats (TPC-H decimals).
	F64
	// Str holds variable-length strings.
	Str
)

func (t ColType) String() string {
	switch t {
	case I64:
		return "i64"
	case F64:
		return "f64"
	case Str:
		return "str"
	default:
		return fmt.Sprintf("ColType(%d)", uint8(t))
	}
}

// Column is a single typed column of one partition. Only the slice
// matching Type is populated.
type Column struct {
	Name string
	Type ColType
	Ints []int64
	Flts []float64
	Strs []string

	strBytes int64 // cumulative payload bytes of Strs
}

// NewColumn creates an empty column.
func NewColumn(name string, t ColType) *Column {
	return &Column{Name: name, Type: t}
}

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	switch c.Type {
	case I64:
		return len(c.Ints)
	case F64:
		return len(c.Flts)
	default:
		return len(c.Strs)
	}
}

// AppendI64 appends an integer value.
func (c *Column) AppendI64(v int64) { c.Ints = append(c.Ints, v) }

// AppendF64 appends a float value.
func (c *Column) AppendF64(v float64) { c.Flts = append(c.Flts, v) }

// AppendStr appends a string value.
func (c *Column) AppendStr(v string) {
	c.Strs = append(c.Strs, v)
	c.strBytes += int64(len(v))
}

// Extend lengthens the column by n zero values, which the caller then
// writes in place (SetStr for strings), and returns its old length. The
// capacity doubles, starting from the first n, so a column filled a chunk
// at a time makes O(log rows) allocations and copies under twice its
// final size, where append's 1.25× growth of large slices copies ~5×.
func (c *Column) Extend(n int) int {
	switch c.Type {
	case I64:
		c.Ints = extend(c.Ints, n)
		return len(c.Ints) - n
	case F64:
		c.Flts = extend(c.Flts, n)
		return len(c.Flts) - n
	default:
		c.Strs = extend(c.Strs, n)
		return len(c.Strs) - n
	}
}

func extend[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		t := make([]T, len(s), max(2*cap(s), len(s)+n))
		copy(t, s)
		s = t
	}
	s = s[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// SetStr overwrites string i of a Str column, keeping the payload byte
// count AvgWidth reads.
func (c *Column) SetStr(i int, v string) {
	c.strBytes += int64(len(v) - len(c.Strs[i]))
	c.Strs[i] = v
}

// AvgWidth returns the average bytes per value, used by the cost model to
// charge morsel scans. Strings are charged their payload plus a 16-byte
// header (offset + length), numerics 8 bytes.
func (c *Column) AvgWidth() float64 {
	switch c.Type {
	case Str:
		n := len(c.Strs)
		if n == 0 {
			return 16
		}
		return 16 + float64(c.strBytes)/float64(n)
	default:
		return 8
	}
}

// BytesRange estimates the storage footprint of rows [begin, end).
func (c *Column) BytesRange(begin, end int) int64 {
	if end <= begin {
		return 0
	}
	return int64(float64(end-begin) * c.AvgWidth())
}

// Grow preallocates capacity for n additional rows.
func (c *Column) Grow(n int) {
	switch c.Type {
	case I64:
		if cap(c.Ints)-len(c.Ints) < n {
			s := make([]int64, len(c.Ints), len(c.Ints)+n)
			copy(s, c.Ints)
			c.Ints = s
		}
	case F64:
		if cap(c.Flts)-len(c.Flts) < n {
			s := make([]float64, len(c.Flts), len(c.Flts)+n)
			copy(s, c.Flts)
			c.Flts = s
		}
	default:
		if cap(c.Strs)-len(c.Strs) < n {
			s := make([]string, len(c.Strs), len(c.Strs)+n)
			copy(s, c.Strs)
			c.Strs = s
		}
	}
}

// ColDef declares a column of a schema.
type ColDef struct {
	Name string
	Type ColType
}

// Schema is an ordered list of column definitions.
type Schema []ColDef

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, d := range s {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// MustIndex is Index but panics on unknown names — schema references in
// hand-built plans are programming errors, not runtime conditions.
func (s Schema) MustIndex(name string) int {
	i := s.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("storage: unknown column %q", name))
	}
	return i
}

// Partition is a horizontal fragment of a table living on one NUMA node.
// Partitions derived from per-worker storage areas carry the producing
// worker's id in Worker (-1 for base-table partitions); hash-join entry
// references encode it.
type Partition struct {
	Home   numa.SocketID
	Worker int
	Cols   []*Column
	// Segs is the optional segment directory (zone maps) of the
	// partition; nil for tables that never built one. Scan compilation
	// uses it to skip provably-dead segments.
	Segs *SegInfo
}

// Rows returns the number of rows in the partition.
func (p *Partition) Rows() int {
	if len(p.Cols) == 0 {
		return 0
	}
	return p.Cols[0].Len()
}

// BytesRange estimates the bytes of the given row range across the listed
// column indexes (the columns a pipeline actually reads).
func (p *Partition) BytesRange(begin, end int, cols []int) int64 {
	var b int64
	for _, ci := range cols {
		b += p.Cols[ci].BytesRange(begin, end)
	}
	return b
}

// Morsel is a small fragment of one partition: the unit of scheduling.
type Morsel struct {
	Part  *Partition
	Begin int
	End   int
}

// Rows returns the number of tuples in the morsel.
func (m Morsel) Rows() int { return m.End - m.Begin }

// Home returns the NUMA node the morsel's data lives on.
func (m Morsel) Home() numa.SocketID { return m.Part.Home }
