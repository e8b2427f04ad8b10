package engine

import (
	"fmt"
	"strings"

	"repro/internal/storage"
)

// Result is a fully materialized query result.
type Result struct {
	Schema []Reg
	rows   [][]Val
}

// NewResult wraps externally materialized rows (reference
// implementations, golden tests) in a Result.
func NewResult(schema []Reg, rows [][]Val) *Result {
	return &Result{Schema: schema, rows: rows}
}

// Rows returns the result tuples. Order is only meaningful for plans with
// ReturnSorted.
func (r *Result) Rows() [][]Val { return r.rows }

// NumRows returns the number of result tuples.
func (r *Result) NumRows() int { return len(r.rows) }

// Row formats one row for display.
func (r *Result) Row(i int) string {
	var b strings.Builder
	for j, v := range r.rows[i] {
		if j > 0 {
			b.WriteString(" | ")
		}
		switch r.Schema[j].Type {
		case TInt:
			fmt.Fprintf(&b, "%d", v.I)
		case TFloat:
			fmt.Fprintf(&b, "%.2f", v.F)
		default:
			b.WriteString(v.S)
		}
	}
	return b.String()
}

// String renders the whole result as a small table (for examples).
func (r *Result) String() string {
	var b strings.Builder
	for j, reg := range r.Schema {
		if j > 0 {
			b.WriteString(" | ")
		}
		b.WriteString(reg.Name)
	}
	b.WriteString("\n")
	for i := range r.rows {
		b.WriteString(r.Row(i))
		b.WriteString("\n")
	}
	return b.String()
}

// ToTable materializes the result as a hash-partitioned table so later
// plans can scan it (multi-phase query orchestration).
func (r *Result) ToTable(name string, nparts, sockets int) *storage.Table {
	schema := storageSchema(r.Schema)
	b := storage.NewBuilder(name, schema, nparts, "")
	row := make(storage.Row, len(schema))
	for _, vals := range r.rows {
		for i, v := range vals {
			switch r.Schema[i].Type {
			case TInt:
				row[i] = v.I
			case TFloat:
				row[i] = v.F
			default:
				row[i] = v.S
			}
		}
		b.Append(row)
	}
	return b.Build(storage.NUMAAware, sockets)
}

// resultSink collects final rows into per-worker buffers (each worker
// appends without synchronization, as with any storage area).
type resultSink struct {
	schema  []Reg
	buffers [][][]Val
}

func newResultSink(schema []Reg, workers int) *resultSink {
	return &resultSink{schema: schema, buffers: make([][][]Val, workers)}
}

func (s *resultSink) factory(pc *pipeCtx) consumer {
	srcIdx := make([]int, len(s.schema))
	for i, r := range s.schema {
		srcIdx[i], _ = pc.resolve(r.Name)
	}
	rowW := rowWidth(s.schema)
	return consumer{row: func(e *Ectx) {
		row := make([]Val, len(srcIdx))
		for i, si := range srcIdx {
			row[i] = e.Regs[si]
		}
		s.buffers[e.W.ID] = append(s.buffers[e.W.ID], row)
		e.writeBytes += int64(rowW)
		e.cpuUnits++
	}}
}

func (s *resultSink) collect() *Result {
	var rows [][]Val
	for _, b := range s.buffers {
		rows = append(rows, b...)
	}
	return &Result{Schema: s.schema, rows: rows}
}
