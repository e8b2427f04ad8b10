package engine

import (
	"fmt"
	"strings"

	"repro/internal/dispatch"
	"repro/internal/numa"
	"repro/internal/storage"
)

// ExchangeKind selects the data movement of an Exchange operator. The
// operator marks a cluster boundary in the plan: rows crossing it leave
// the producing node's pipelines and re-enter a peer's dispatcher as
// fresh morsels. The paper's NUMA-aware morsel scheduling (§3) treats a
// remote socket as a more expensive place to read from; Exchange extends
// the same idea one level up, where "remote" means another morseld
// process and the interconnect is a real network (Rödiger et al.).
type ExchangeKind uint8

const (
	// ExchangePartition hash-partitions rows on the listed keys, sending
	// each row to the node owning its key (mod-N over the hash-partition
	// index, so rows land co-partitioned with the receiver's shards).
	ExchangePartition ExchangeKind = iota
	// ExchangeBroadcast replicates every row to all nodes.
	ExchangeBroadcast
	// ExchangeGather sends every node's rows to the coordinator.
	ExchangeGather
)

// String names the exchange kind for Explain output.
func (k ExchangeKind) String() string {
	switch k {
	case ExchangePartition:
		return "hash"
	case ExchangeBroadcast:
		return "broadcast"
	case ExchangeGather:
		return "gather"
	default:
		return fmt.Sprintf("ExchangeKind(%d)", uint8(k))
	}
}

// Exchange marks a cluster data-movement boundary above n: the subtree
// below executes on every node over its shard, and the rows move
// according to kind before the plan continues. keys names the routing
// columns (ExchangePartition only); nodes is the cluster size.
//
// Executed single-node, an Exchange computes the same rows it would
// distributed, which is what the parity tests rely on: in Real mode it
// streams, in Sim it is a pipeline breaker that buffers and rescans its
// input (see produceExchange). The distributed runtime replaces the
// boundary with the wire: fragments run per node and the exchange's rows
// arrive through receive-side inboxes.
func (n *Node) Exchange(kind ExchangeKind, keys []string, nodes int) *Node {
	if nodes < 1 {
		panic("engine: exchange over fewer than 1 node")
	}
	if kind == ExchangePartition && len(keys) == 0 {
		panic("engine: partition exchange needs routing keys")
	}
	for _, k := range keys {
		schemaResolver(n.out).resolve(k)
	}
	return &Node{plan: n.plan, kind: nExchange, child: n, exKind: kind, exKeys: keys, exNodes: nodes, out: n.out}
}

// describeExchange renders the Explain marker, e.g.
// "exchange hash(o_custkey) → 2 nodes" (docs/explain.md).
func describeExchange(n *Node) string {
	switch n.exKind {
	case ExchangePartition:
		return fmt.Sprintf("exchange hash(%s) → %d nodes", strings.Join(n.exKeys, ", "), n.exNodes)
	case ExchangeBroadcast:
		return fmt.Sprintf("exchange broadcast → %d nodes", n.exNodes)
	default:
		return fmt.Sprintf("exchange gather ← %d nodes", n.exNodes)
	}
}

// produceExchange compiles an Exchange for single-node execution, and
// owns the one rule for how an exchange edge runs: in Real mode it
// streams (produceStreamExchange); in Sim it is a buffer-and-rescan
// pipeline breaker, exactly like Materialize but charged as an exchange
// hand-off, which keeps virtual time deterministic. Either way the rows
// re-enter the downstream pipeline as fresh morsels — locally from the
// buffer or stream, distributed from the peer inboxes — so consumers
// cannot tell the paths apart.
func (c *compiler) produceExchange(n *Node, f consumerFactory) []tailJob {
	if c.sess.Mode == Real {
		return c.produceStreamExchange(n, f)
	}
	sink := newResultSink(n.out, c.workers)
	tails := n.child.produce(c, sink.factory)
	var tab *storage.Table
	var drv *driver
	label := "exchange(" + n.exKind.String() + ")"
	barrier := c.q.AddJob(label,
		func() []*storage.Partition {
			drv = newDriver(1, func(int) numa.SocketID { return 0 })
			return drv.parts
		},
		func(w *dispatch.Worker, m storage.Morsel) {
			res := sink.collect()
			tab = res.ToTable("$exchange", c.workers, c.sockets)
			w.Tracker.Advance(float64(res.NumRows()) * ExchangeSerialNsPerRow)
		})
	barrier.After(tails...).WithMorselRows(1)

	pc, body := c.scanPipe(n.out, nil, nil, f)
	job := c.q.AddJob(label+" recv", func() []*storage.Partition { return tab.Parts }, body)
	job.After(append(pc.deps, barrier)...)
	return []tailJob{job}
}

// produceStreamExchange compiles an Exchange for Real-mode execution:
// the child's rows are chunked into partitions and fed to a
// StreamSource as they are produced, while a stream-fed scan job
// consumes them concurrently — no stage barrier. This is the same
// StreamSource hand-off the distributed runtime uses for peer inboxes,
// so a single node overlaps independent pipeline stages through the
// identical code path. A closer job gated on the child's tails flushes
// partial chunks and ends the stream.
func (c *compiler) produceStreamExchange(n *Node, f consumerFactory) []tailJob {
	label := "exchange(" + n.exKind.String() + ")"
	src := NewStreamSource(label)
	chunker := newStreamChunker(n.out, c.workers, streamChunkRows, src)
	tails := n.child.produce(c, chunker.factory)
	var drv *driver
	closer := c.q.AddJob(label+" close",
		func() []*storage.Partition {
			drv = newDriver(1, func(int) numa.SocketID { return 0 })
			return drv.parts
		},
		func(w *dispatch.Worker, m storage.Morsel) {
			chunker.flushAll()
			src.Close(nil)
		})
	closer.After(tails...).WithMorselRows(1)

	pc, body := c.scanPipe(n.out, nil, nil, f)
	job := c.q.AddJob(label+" recv", nil, body).Streaming()
	job.After(pc.deps...)
	c.streams = append(c.streams, compiledStream{src: src, job: job})
	return []tailJob{job}
}
