package engine

import (
	"sync"

	"repro/internal/dispatch"
	"repro/internal/storage"
)

// PartSink consumes streamed partitions. It is the engine-side mirror of
// the exchange package's Sink contract: Feed hands over fresh
// partitions, Close ends the stream exactly once — nil for a clean end,
// the first failure otherwise. *StreamSource satisfies it, so sources
// chain (an exchange inbox binds a StreamSource, which binds a pipeline
// job).
type PartSink interface {
	Feed(parts ...*storage.Partition)
	Close(err error)
}

// StreamSource is the unified streaming hand-off between a producer of
// partitions and a consuming stream scan. The producer side — an
// exchange inbox decoding remote frames, or a local pipeline flushing
// chunks — calls Feed/Close; the consuming query attaches at execution
// time (after Submit) and receives everything fed so far plus the live
// remainder. One code path serves both the distributed runtime and
// single-node stage overlap, which is the point: a fragment cannot tell
// whether its input is a peer's wire stream or a sibling pipeline.
type StreamSource struct {
	name string

	mu     sync.Mutex
	dst    PartSink             // consuming query's job sink, set at bind
	buf    []*storage.Partition // fed before the consumer attached
	closed bool
	err    error
}

// NewStreamSource creates an unbound stream source; name labels errors
// and the compiled pipeline job.
func NewStreamSource(name string) *StreamSource { return &StreamSource{name: name} }

// Name returns the source's label.
func (s *StreamSource) Name() string { return s.name }

// Feed hands fresh partitions to the consumer, buffering until the
// consuming query binds. Feeding after Close is a no-op (a straggling
// producer racing a failure).
func (s *StreamSource) Feed(parts ...*storage.Partition) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.dst == nil {
		s.buf = append(s.buf, parts...)
		s.mu.Unlock()
		return
	}
	dst := s.dst
	s.mu.Unlock()
	dst.Feed(parts...)
}

// Close ends the stream: nil for a clean end-of-stream, an error to
// poison the consuming query. Idempotent; the first close wins.
func (s *StreamSource) Close(err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.err = err
	dst := s.dst
	s.mu.Unlock()
	if dst != nil {
		dst.Close(err)
	}
}

// bind attaches the consuming sink, replaying buffered partitions and a
// completion that already happened.
func (s *StreamSource) bind(dst PartSink) {
	s.mu.Lock()
	if s.dst != nil {
		s.mu.Unlock()
		panic("engine: stream source " + s.name + " bound twice")
	}
	s.dst = dst
	buf := s.buf
	s.buf = nil
	closed, err := s.closed, s.err
	s.mu.Unlock()
	if len(buf) > 0 {
		dst.Feed(buf...)
	}
	if closed {
		dst.Close(err)
	}
}

// jobSink adapts a stream-fed pipeline job to the PartSink contract: Feed
// hands partitions to the dispatcher as fresh morsels, a clean Close ends
// the job's stream, and a failed Close records the stream error and
// cancels the whole query (the morsel boundary is the cancellation
// point, as everywhere else).
type jobSink struct {
	cp  *Compiled
	d   *dispatch.Dispatcher
	job *dispatch.PipelineJob
}

func (s *jobSink) Feed(parts ...*storage.Partition) { s.d.Feed(s.job, parts...) }

func (s *jobSink) Close(err error) {
	if err != nil {
		s.cp.setStreamErr(err)
		s.d.Cancel(s.cp.Query)
		return
	}
	s.d.FinishStream(s.job)
}

// compiledStream is one stream scan awaiting its source binding.
type compiledStream struct {
	src *StreamSource
	job *dispatch.PipelineJob
}

// streamChunkRows is the partition granularity of in-process streams,
// aligned with the wire morsel size so local and distributed streaming
// hand identical units to the dispatcher.
const streamChunkRows = 4096

// streamChunker is a pipeline sink that chunks rows into column
// partitions and feeds a PartSink as each chunk fills, so downstream
// stream scans start while the producing pipeline is still running. Each
// worker fills its own chunk without synchronization; partitions are
// homed on the producing worker's socket so locality-aware dispatch
// keeps the hand-off NUMA-local.
type streamChunker struct {
	regs   []Reg
	schema storage.Schema
	out    PartSink
	chunk  int
	bufs   []*storage.Partition // per worker, nil until first row
}

func newStreamChunker(regs []Reg, workers, chunk int, out PartSink) *streamChunker {
	return &streamChunker{regs: regs, schema: storageSchema(regs), out: out, chunk: chunk,
		bufs: make([]*storage.Partition, workers)}
}

func (s *streamChunker) newPart() *storage.Partition {
	cols := make([]*storage.Column, len(s.schema))
	for i, d := range s.schema {
		cols[i] = storage.NewColumn(d.Name, d.Type)
	}
	return &storage.Partition{Worker: -1, Cols: cols}
}

func (s *streamChunker) factory(pc *pipeCtx) consumer {
	srcIdx := make([]int, len(s.regs))
	for i, r := range s.regs {
		srcIdx[i], _ = pc.resolve(r.Name)
	}
	rowW := rowWidth(s.regs)
	return consumer{row: func(e *Ectx) {
		w := e.W.ID
		p := s.bufs[w]
		if p == nil {
			p = s.newPart()
			p.Home = e.W.Socket()
			s.bufs[w] = p
		}
		for i, si := range srcIdx {
			v := e.Regs[si]
			switch s.schema[i].Type {
			case storage.I64:
				p.Cols[i].AppendI64(v.I)
			case storage.F64:
				p.Cols[i].AppendF64(v.F)
			default:
				p.Cols[i].AppendStr(v.S)
			}
		}
		e.writeBytes += int64(rowW)
		e.cpuUnits++
		if p.Rows() >= s.chunk {
			s.bufs[w] = nil
			s.out.Feed(p)
		}
	}}
}

// flushAll emits every worker's partial chunk. Call it only once the
// producing pipelines completed (nothing appends concurrently).
func (s *streamChunker) flushAll() {
	for w, p := range s.bufs {
		if p != nil && p.Rows() > 0 {
			s.bufs[w] = nil
			s.out.Feed(p)
		}
	}
}
