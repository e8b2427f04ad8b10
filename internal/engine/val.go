// Package engine implements the morsel-driven query engine: pipelines
// compiled into composed closures (the Go analog of HyPer's JIT-compiled
// pipeline fragments), a column-at-a-time front end on every column-sourced
// pipeline — selection-vector filter kernels, hash-join probes that take a
// chunk at a time and pass (scan row, build ref) pair lists down a chain of
// joins, and the two pipeline breakers that take such a chunk whole: the
// hash-join build, which gathers it into the worker's storage area, and
// aggregation phase 1, all over a morsel's typed column slices (kernel.go,
// join.go, agg.go) — ahead of a register file of Vals,
// filled only for the rows that leave the last batch stage, that carries
// them through the row-at-a-time operators (and the breakers behind them),
// expression evaluation, and the paper's parallel operators — pipelined
// hash joins on the lock-free tagged hash table (§4.1/§4.2, with
// semi/anti/mark/outer variants, probed tag first), two-phase parallel
// aggregation (§4.4), parallel merge sort / top-k (§4.5), and Materialize,
// a compute-once buffer shared by several consumers — all executing
// morsel-wise under the dispatcher. Plans are immutable under compilation,
// so one prepared plan serves many concurrent sessions. Plan.Explain
// renders the operator tree (docs/explain.md).
package engine

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/dispatch"
	"repro/internal/numa"
	"repro/internal/storage"
)

// Type is the logical type of a register or expression.
type Type uint8

const (
	// TInt covers integers, dates (days since epoch) and booleans
	// (0/1).
	TInt Type = iota
	// TFloat covers TPC-H decimals.
	TFloat
	// TStr covers strings.
	TStr
)

func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TStr:
		return "str"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// colType maps a logical type to its physical column type.
func (t Type) colType() storage.ColType {
	switch t {
	case TInt:
		return storage.I64
	case TFloat:
		return storage.F64
	default:
		return storage.Str
	}
}

// storageSchema types a register list as storage columns.
func storageSchema(regs []Reg) storage.Schema {
	s := make(storage.Schema, len(regs))
	for i, r := range regs {
		s[i] = storage.ColDef{Name: r.Name, Type: r.Type.colType()}
	}
	return s
}

func typeOfCol(c storage.ColType) Type {
	switch c {
	case storage.I64:
		return TInt
	case storage.F64:
		return TFloat
	default:
		return TStr
	}
}

// Val is one runtime value. Exactly one field is meaningful, chosen by
// the statically known Type.
type Val struct {
	I int64
	F float64
	S string
}

// Reg describes one register of a pipeline's register file.
type Reg struct {
	Name string
	Type Type
}

// Ectx is the per-worker, per-pipeline execution context: the register
// file the composed pipeline closures operate on, plus cost accumulators
// that are flushed to the worker's NUMA tracker once per morsel (charging
// per value would dominate runtime; charging per morsel preserves the
// model exactly).
type Ectx struct {
	W    *dispatch.Worker
	Regs []Val

	key []byte // scratch for group-key encoding (transient within one call)
	// scratch holds per-operator value scratch. Operators that keep key
	// values alive across downstream calls (hash-join probes, sinks)
	// get their own slot so that nested probes in one pipeline — team
	// joins — cannot clobber each other.
	scratch [][]Val

	// Scan front end (kernel.go): the working memory borrowed for the
	// morsel at hand, the chunk being worked on included.
	*scanScratch

	cpuUnits   float64
	writeBytes int64
	// randLines counts dependent cache-line accesses per home socket;
	// index len-1 is the interleaved bucket.
	randLines []int64
	// shuffleBytes models Volcano exchange repartitioning traffic in
	// plan-driven mode (read side; the write side goes to writeBytes).
	shuffleBytes int64
}

func newEctx(nRegs, sockets int, scratchSizes []int) *Ectx {
	e := &Ectx{
		Regs:      make([]Val, nRegs),
		randLines: make([]int64, sockets+1),
		scratch:   make([][]Val, len(scratchSizes)),
	}
	for i, n := range scratchSizes {
		e.scratch[i] = make([]Val, n)
	}
	return e
}

func (e *Ectx) reset(w *dispatch.Worker) {
	e.W = w
	e.cpuUnits = 0
	e.writeBytes = 0
	e.shuffleBytes = 0
	for i := range e.randLines {
		e.randLines[i] = 0
	}
}

// flush charges the accumulated costs of one morsel to the tracker.
func (e *Ectx) flush() {
	tr := e.W.Tracker
	tr.CPUUnits(e.cpuUnits)
	tr.WriteSeq(e.writeBytes)
	last := len(e.randLines) - 1
	for s := 0; s < last; s++ {
		tr.ReadRand(numa.SocketID(s), e.randLines[s])
	}
	tr.ReadRand(numa.NoSocket, e.randLines[last])
	if e.shuffleBytes > 0 {
		tr.ReadSeq(numa.NoSocket, e.shuffleBytes)
	}
}

// rowFn is a compiled pipeline step: it consumes the current register
// values and pushes them onward. Behind the batch stages of the front end
// (filter kernels, batch probes), pipelines are rowFn chains composed at
// plan-compile time — one closure call per operator per surviving tuple,
// no intermediate materialization, mirroring the paper's JIT'd pipelines.
type rowFn func(e *Ectx)

// Group keys are byte strings: each key value appended in turn by one of
// the appendKey functions (encodeVal picks by type) and read back by
// decodeVal. The bytes feed hashBytes, so the encoding also decides which
// partition a group lands in.

func appendKeyInt(buf []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}

// appendKeyFloat encodes a float by its bits as floatWord gives them, so
// every distinct value is its own group and decodes exactly, -0 groups
// with +0 (and comes back as +0), and every NaN groups with every other.
func appendKeyFloat(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, floatWord(v))
}

// keyLongStr in the two-byte length field marks a string of 65 535 bytes
// or more, whose real length follows as a uvarint. Shorter strings keep
// the plain two-byte length, so their keys — and with them group hashes
// and partition numbers — are what they always were.
const keyLongStr = 0xFFFF

func appendKeyStr(buf []byte, s string) []byte {
	if len(s) < keyLongStr {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	} else {
		buf = binary.LittleEndian.AppendUint16(buf, keyLongStr)
		buf = binary.AppendUvarint(buf, uint64(len(s)))
	}
	if len(s) > 8 {
		return append(buf, s...)
	}
	for i := 0; i < len(s); i++ { // flags and codes: cheaper than a memmove call
		buf = append(buf, s[i])
	}
	return buf
}

// encodeVal appends the group-key encoding of v (typed t) to buf.
func encodeVal(buf []byte, t Type, v Val) []byte {
	switch t {
	case TInt:
		return appendKeyInt(buf, v.I)
	case TFloat:
		return appendKeyFloat(buf, v.F)
	default:
		return appendKeyStr(buf, v.S)
	}
}

// decodeVal reads one value of type t from buf, returning the value and
// the remaining bytes.
func decodeVal(buf []byte, t Type) (Val, []byte) {
	switch t {
	case TInt:
		return Val{I: int64(binary.LittleEndian.Uint64(buf))}, buf[8:]
	case TFloat:
		return Val{F: math.Float64frombits(binary.LittleEndian.Uint64(buf))}, buf[8:]
	default:
		n := int(binary.LittleEndian.Uint16(buf))
		buf = buf[2:]
		if n == keyLongStr {
			long, w := binary.Uvarint(buf)
			n, buf = int(long), buf[w:]
		}
		return Val{S: string(buf[:n])}, buf[n:]
	}
}
