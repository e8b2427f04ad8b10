package exchange

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/numa"
	"repro/internal/storage"
)

// Sink consumes a streaming inbox's decoded partitions as they arrive.
// Feed hands over zero or more fresh partitions; Close is called exactly
// once — with nil when every sender finished cleanly, or with the first
// stream error otherwise. On the failure path a straggling Feed may race
// past Close, so implementations must treat Feed-after-Close as a no-op
// (the dispatcher's stream-fed jobs already do). The engine's pipeline
// jobs implement this to run remote morsels without a barrier.
type Sink interface {
	Feed(parts ...*storage.Partition)
	Close(err error)
}

// Sender stream states, for retrying fragment RPCs safely: a node that
// re-runs a fragment after a lost acknowledgement re-pushes an identical
// stream, which must count once — while a retry after a *partial* stream
// can never be deduplicated (its morsels may already be executing), so it
// poisons the inbox into a clean query-wide error.
const (
	senderNone uint8 = iota
	senderActive
	senderDone
	senderDirty
)

// Inbox accumulates the morsel streams peer nodes send for one (query,
// stage). Decoded partitions are handed to a bound Sink as frames arrive
// — bounded upstream by the sender's Outbox window — and the sink is
// closed when the expected number of senders delivered their end frames.
// ReceiveFrom is safe to call concurrently (one call per sender stream).
type Inbox struct {
	sockets int
	senders int // expected stream count

	mu      sync.Mutex
	schema  storage.Schema
	parts   []*storage.Partition // every partition so far, replayed on Bind
	sink    Sink
	streams map[int]uint8 // sender id -> stream state
	ended   int
	closed  bool
	err     error
}

// NewStreamInbox creates an inbox expecting exactly `senders` streams.
// Decoded partitions flow to the Sink bound with Bind (frames arriving
// earlier are buffered and replayed at bind time). They are homed
// round-robin across `sockets` NUMA nodes: the data is freshly allocated
// by the receiving process, so any assignment is as good as the
// allocator's.
func NewStreamInbox(sockets, senders int) *Inbox {
	senders = max(senders, 1)
	return &Inbox{sockets: max(sockets, 1), senders: senders, streams: make(map[int]uint8, senders)}
}

// Bind attaches (or replaces) the consuming sink. Already-received
// partitions are replayed into it immediately, and a completion (or
// failure) that already happened is replayed too. The inbox retains
// every partition, so rebinding gives a fresh sink the complete stream
// prefix — that is what makes re-executing a fragment on the same node
// safe: the retried execution binds its own sink and reconsumes from
// the start, while the abandoned sink hears nothing further.
func (ib *Inbox) Bind(sink Sink) {
	ib.mu.Lock()
	ib.sink = sink
	buffered := append([]*storage.Partition(nil), ib.parts...)
	closed, err := ib.closed, ib.err
	ib.mu.Unlock()
	if len(buffered) > 0 {
		sink.Feed(buffered...)
	}
	if closed {
		sink.Close(err)
	}
}

// ReceiveFrom decodes the stream pushed by the given sender. Completed
// duplicates (a fragment retried after a lost acknowledgement re-ships
// identical data) are drained and ignored; a retry after a partial
// stream poisons the inbox. When the last expected sender ends its
// stream, the bound sink closes cleanly.
func (ib *Inbox) ReceiveFrom(sender int, r io.Reader) error {
	ib.mu.Lock()
	if ib.err != nil {
		err := ib.err
		ib.mu.Unlock()
		return err
	}
	switch ib.streams[sender] {
	case senderActive, senderDone:
		// An identical re-push of data already streamed (or streaming):
		// count it once, swallow the duplicate.
		ib.mu.Unlock()
		_, _ = io.Copy(io.Discard, r)
		return nil
	case senderDirty:
		err := fmt.Errorf("exchange: sender %d retried after a partial stream", sender)
		sink := ib.failLocked(err)
		ib.mu.Unlock()
		if sink != nil {
			sink.Close(err)
		}
		return err
	}
	ib.streams[sender] = senderActive
	ib.mu.Unlock()

	if err := ib.receive(r); err != nil {
		ib.mu.Lock()
		ib.streams[sender] = senderDirty
		sink := ib.failLocked(err)
		cerr := ib.err
		ib.mu.Unlock()
		if sink != nil {
			sink.Close(cerr)
		}
		return err
	}
	ib.mu.Lock()
	ib.streams[sender] = senderDone
	ib.ended++
	var sink Sink
	if ib.ended == ib.senders {
		sink = ib.closeLocked()
	}
	ib.mu.Unlock()
	if sink != nil {
		sink.Close(nil)
	}
	return nil
}

func (ib *Inbox) receive(r io.Reader) error {
	rd := NewReader(r)
	schema, err := rd.Schema()
	if err != nil {
		return err
	}
	if err := ib.checkSchema(schema); err != nil {
		return err
	}
	for {
		p, err := rd.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		ib.add(p)
	}
}

// Fail poisons the inbox: the bound sink closes with err, pending and
// future receives observe it. Used for query-wide cancellation when a
// peer node dies mid-stream.
func (ib *Inbox) Fail(err error) {
	ib.mu.Lock()
	sink := ib.failLocked(err)
	cerr := ib.err
	ib.mu.Unlock()
	if sink != nil {
		sink.Close(cerr)
	}
}

// failLocked records the first error and closes the inbox, returning the
// sink the caller must Close (with ib.err) after releasing the lock.
func (ib *Inbox) failLocked(err error) Sink {
	if ib.err == nil {
		ib.err = err
	}
	return ib.closeLocked()
}

// closeLocked marks the inbox complete, returning the sink to Close —
// exactly once across all close paths; callers invoke it after releasing
// the lock, since a sink's Close may take the dispatcher's lock.
func (ib *Inbox) closeLocked() Sink {
	if ib.closed {
		return nil
	}
	ib.closed = true
	return ib.sink
}

func (ib *Inbox) checkSchema(s storage.Schema) error {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.schema == nil {
		ib.schema = s
		return nil
	}
	if len(ib.schema) != len(s) {
		return fmt.Errorf("exchange: inbox schema mismatch: %d vs %d columns", len(ib.schema), len(s))
	}
	for i := range s {
		if ib.schema[i] != s[i] {
			return fmt.Errorf("exchange: inbox schema mismatch at column %d: %v vs %v", i, ib.schema[i], s[i])
		}
	}
	return nil
}

func (ib *Inbox) add(p *storage.Partition) {
	ib.mu.Lock()
	p.Home = numa.SocketID(len(ib.parts) % ib.sockets)
	ib.parts = append(ib.parts, p)
	sink := ib.sink
	ib.mu.Unlock()
	if sink != nil {
		sink.Feed(p)
	}
}

// Frames returns the number of morsel frames delivered so far.
func (ib *Inbox) Frames() int64 {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return int64(len(ib.parts))
}
