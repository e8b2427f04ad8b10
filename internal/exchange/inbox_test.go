package exchange

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// collectSink is a test Sink recording feeds and the terminal close.
type collectSink struct {
	mu     sync.Mutex
	rows   int
	cols   []string // column names of the last fed partition
	feeds  int
	closed bool
	err    error
	done   chan struct{}
}

func newCollectSink() *collectSink { return &collectSink{done: make(chan struct{})} }

func (s *collectSink) Feed(parts ...*storage.Partition) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.feeds++
	for _, p := range parts {
		s.rows += p.Rows()
		s.cols = s.cols[:0]
		for _, c := range p.Cols {
			s.cols = append(s.cols, c.Name)
		}
	}
}

func (s *collectSink) Close(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		panic("sink closed twice")
	}
	s.closed = true
	s.err = err
	close(s.done)
}

func (s *collectSink) wait(t *testing.T) error {
	t.Helper()
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		t.Fatal("sink never closed")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// intStream encodes one sender's stream carrying the given int64 values
// (one column "k", one morsel frame per value).
func intStream(t testing.TB, vals ...int64) []byte {
	t.Helper()
	schema := storage.Schema{{Name: "k", Type: storage.I64}}
	var buf bytes.Buffer
	w := NewWriter(&buf, schema)
	for _, v := range vals {
		c := storage.NewColumn("k", storage.I64)
		c.AppendI64(v)
		if err := w.WriteMorsel([]*storage.Column{c}, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteEnd(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func rawFrame(typ byte, payload []byte) []byte {
	b := make([]byte, 5+len(payload))
	binary.LittleEndian.PutUint32(b, uint32(len(payload)))
	b[4] = typ
	copy(b[5:], payload)
	return b
}

// TestStreamInboxIncremental is the core streaming contract: a bound
// sink sees partitions from the first sender before the second sender
// has even started, and closes cleanly once both ended.
func TestStreamInboxIncremental(t *testing.T) {
	ib := NewStreamInbox(2, 2)
	sink := newCollectSink()
	ib.Bind(sink)

	if err := ib.ReceiveFrom(0, bytes.NewReader(intStream(t, 1, 2, 3))); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	rowsAfterFirst := sink.rows
	closedAfterFirst := sink.closed
	sink.mu.Unlock()
	if rowsAfterFirst != 3 {
		t.Fatalf("sink rows after first sender = %d, want 3 (no barrier)", rowsAfterFirst)
	}
	if closedAfterFirst {
		t.Fatal("sink closed before all senders ended")
	}
	if err := ib.ReceiveFrom(1, bytes.NewReader(intStream(t, 4))); err != nil {
		t.Fatal(err)
	}
	if err := sink.wait(t); err != nil {
		t.Fatalf("clean close, got %v", err)
	}
	if sink.rows != 4 || ib.Frames() != 4 {
		t.Fatalf("rows=%d frames=%d, want 4/4", sink.rows, ib.Frames())
	}
}

// TestStreamInboxBindReplay: frames received before Bind are buffered
// and replayed into the sink, including a completion that already
// happened.
func TestStreamInboxBindReplay(t *testing.T) {
	ib := NewStreamInbox(2, 1)
	if err := ib.ReceiveFrom(0, bytes.NewReader(intStream(t, 7, 8))); err != nil {
		t.Fatal(err)
	}
	sink := newCollectSink()
	ib.Bind(sink)
	if err := sink.wait(t); err != nil {
		t.Fatal(err)
	}
	if sink.rows != 2 {
		t.Fatalf("replayed rows = %d, want 2", sink.rows)
	}
}

// TestStreamInboxDuplicateSender: a completed sender that pushes again
// (fragment retry after a lost acknowledgement) is drained and ignored —
// rows count exactly once.
func TestStreamInboxDuplicateSender(t *testing.T) {
	ib := NewStreamInbox(2, 2)
	sink := newCollectSink()
	ib.Bind(sink)
	if err := ib.ReceiveFrom(0, bytes.NewReader(intStream(t, 1, 2))); err != nil {
		t.Fatal(err)
	}
	if err := ib.ReceiveFrom(0, bytes.NewReader(intStream(t, 1, 2))); err != nil {
		t.Fatal(err)
	}
	if err := ib.ReceiveFrom(1, bytes.NewReader(intStream(t, 3))); err != nil {
		t.Fatal(err)
	}
	if err := sink.wait(t); err != nil {
		t.Fatal(err)
	}
	if sink.rows != 3 {
		t.Fatalf("rows = %d, want 3 (duplicate stream deduplicated)", sink.rows)
	}
}

// TestStreamInboxRetryAfterPartial: a sender whose first stream broke
// mid-way cannot be deduplicated (its morsels may already be running),
// so its retry poisons the inbox into a clean query-wide error.
func TestStreamInboxRetryAfterPartial(t *testing.T) {
	ib := NewStreamInbox(2, 2)
	sink := newCollectSink()
	ib.Bind(sink)
	full := intStream(t, 1, 2, 3)
	if err := ib.ReceiveFrom(0, bytes.NewReader(full[:len(full)-3])); err == nil {
		t.Fatal("truncated stream did not error")
	}
	// The partial stream already poisoned the inbox, so the retry is
	// rejected with the original error instead of feeding duplicates.
	if err := ib.ReceiveFrom(0, bytes.NewReader(full)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("retry after partial = %v, want the poisoning error", err)
	}
	if serr := sink.wait(t); serr == nil {
		t.Fatal("sink closed cleanly after a partial stream")
	}
}

// TestStreamInboxOutOfOrderFrames: a morsel frame before the schema
// frame, and a second schema frame mid-stream, must both surface as
// corrupt-stream errors and poison the inbox.
func TestStreamInboxOutOfOrderFrames(t *testing.T) {
	morselFirst := rawFrame(frameMorsel, []byte{1, 0, 0, 0})
	ib := NewStreamInbox(2, 1)
	sink := newCollectSink()
	ib.Bind(sink)
	if err := ib.ReceiveFrom(0, bytes.NewReader(morselFirst)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("morsel-before-schema = %v, want ErrCorruptFrame", err)
	}
	if err := sink.wait(t); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("sink close err = %v, want ErrCorruptFrame", err)
	}

	// Schema frame appearing again mid-stream.
	var schemaFrame []byte
	{
		var buf bytes.Buffer
		w := NewWriter(&buf, storage.Schema{{Name: "k", Type: storage.I64}})
		if err := w.WriteSchema(); err != nil {
			t.Fatal(err)
		}
		schemaFrame = buf.Bytes()
	}
	midSchema := append(append([]byte{}, schemaFrame...), schemaFrame...)
	ib2 := NewStreamInbox(2, 1)
	sink2 := newCollectSink()
	ib2.Bind(sink2)
	if err := ib2.ReceiveFrom(0, bytes.NewReader(midSchema)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("double schema = %v, want ErrCorruptFrame", err)
	}
}

// TestStreamInboxMidStreamErrorFrame: an error frame after live morsels
// closes the sink with the remote error.
func TestStreamInboxMidStreamErrorFrame(t *testing.T) {
	schema := storage.Schema{{Name: "k", Type: storage.I64}}
	var buf bytes.Buffer
	w := NewWriter(&buf, schema)
	c := storage.NewColumn("k", storage.I64)
	c.AppendI64(9)
	if err := w.WriteMorsel([]*storage.Column{c}, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteError("node 1 exploded"); err != nil {
		t.Fatal(err)
	}
	ib := NewStreamInbox(2, 1)
	sink := newCollectSink()
	ib.Bind(sink)
	err := ib.ReceiveFrom(0, bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "node 1 exploded") {
		t.Fatalf("err = %v, want remote error", err)
	}
	if serr := sink.wait(t); serr == nil || !strings.Contains(serr.Error(), "node 1 exploded") {
		t.Fatalf("sink err = %v, want remote error", serr)
	}
	if sink.rows != 1 {
		t.Fatalf("rows before error = %d, want 1", sink.rows)
	}
}

// TestStreamInboxCancelMidWindow: the connection dying mid-stream (the
// HTTP layer closes the body on query cancellation) unblocks the
// receive with an error and poisons the inbox.
func TestStreamInboxCancelMidWindow(t *testing.T) {
	ib := NewStreamInbox(2, 2)
	sink := newCollectSink()
	ib.Bind(sink)

	pr, pw := io.Pipe()
	recvErr := make(chan error, 1)
	go func() { recvErr <- ib.ReceiveFrom(0, pr) }()

	w := NewWriter(pw, storage.Schema{{Name: "k", Type: storage.I64}})
	c := storage.NewColumn("k", storage.I64)
	c.AppendI64(1)
	if err := w.WriteMorsel([]*storage.Column{c}, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Wait until the morsel reached the sink, then kill the connection
	// mid-stream.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sink.mu.Lock()
		rows := sink.rows
		sink.mu.Unlock()
		if rows == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first morsel never reached the sink")
		}
		time.Sleep(time.Millisecond)
	}
	pw.CloseWithError(fmt.Errorf("connection reset"))
	if err := <-recvErr; err == nil {
		t.Fatal("receive survived a dead connection")
	}
	if serr := sink.wait(t); serr == nil {
		t.Fatal("sink closed cleanly after a dead connection")
	}
	if err := ib.ReceiveFrom(1, bytes.NewReader(intStream(t, 2))); err == nil {
		t.Fatal("a poisoned inbox accepted another sender")
	}
}

// TestStreamInboxFail: an external Fail (query-wide cancellation)
// closes the sink with the given error exactly once.
func TestStreamInboxFail(t *testing.T) {
	ib := NewStreamInbox(2, 2)
	sink := newCollectSink()
	ib.Bind(sink)
	boom := errors.New("peer died")
	ib.Fail(boom)
	ib.Fail(errors.New("second fail ignored"))
	if err := sink.wait(t); !errors.Is(err, boom) {
		t.Fatalf("sink err = %v, want %v", err, boom)
	}
	if err := ib.ReceiveFrom(0, bytes.NewReader(intStream(t, 1))); !errors.Is(err, boom) {
		t.Fatalf("receive after Fail = %v, want %v", err, boom)
	}
}
