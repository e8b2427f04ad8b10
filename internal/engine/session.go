package engine

import (
	"time"

	"repro/internal/dispatch"
	"repro/internal/numa"
)

// Mode selects how compiled queries execute.
type Mode uint8

const (
	// Sim runs on the deterministic virtual-time simulator; results are
	// computed for real, timing comes from the machine model. All
	// paper experiments use this mode.
	Sim Mode = iota
	// Real runs on goroutines; timing is wall-clock. Used by tests and
	// interactive examples.
	Real
)

// Session bundles a machine model with execution configuration. Sessions
// are cheap; experiments create one per configuration under test.
type Session struct {
	Machine  *numa.Machine
	Dispatch dispatch.Config
	Mode     Mode
	SimCfg   dispatch.SimConfig

	// PlanDriven adds Volcano exchange-operator costs to pipeline
	// breakers: repartitioning materialization (every exchanged row is
	// copied and crosses the fabric) plus a serialized coordination
	// phase per exchange (plan instantiation, partition hand-off and
	// merge run on one thread in classic implementations — the Amdahl
	// fraction that caps Vectorwise's speedup in §5.2). Combined with
	// Dispatch.NonAdaptive and NoLocality this is the plan-driven
	// baseline.
	PlanDriven bool
}

// ExchangeSerialNsPerRow is the serialized per-row coordination cost of a
// Volcano exchange operator (PlanDriven mode only).
var ExchangeSerialNsPerRow = 40.0

// NewSession creates a session with the paper's full-fledged defaults on
// the given machine.
func NewSession(m *numa.Machine) *Session {
	return &Session{Machine: m}
}

// QueryStats summarizes one query execution with the metrics of the
// paper's Table 1/3: time, memory traffic, NUMA locality, and
// interconnect saturation.
type QueryStats struct {
	TimeNs      float64
	ReadBytes   int64
	WriteBytes  int64
	RemoteBytes int64
	Morsels     int64
	Tuples      int64
	MaxLinkB    int64
	LinkGBs     float64
}

// Add accumulates the stats of a sequentially executed phase.
func (s *QueryStats) Add(o QueryStats) {
	s.TimeNs += o.TimeNs
	s.ReadBytes += o.ReadBytes
	s.WriteBytes += o.WriteBytes
	s.RemoteBytes += o.RemoteBytes
	s.Morsels += o.Morsels
	s.Tuples += o.Tuples
	s.MaxLinkB += o.MaxLinkB
}

// ReadGBs returns the effective read bandwidth (GB/s == bytes/ns).
func (s QueryStats) ReadGBs() float64 {
	if s.TimeNs == 0 {
		return 0
	}
	return float64(s.ReadBytes) / s.TimeNs
}

// WriteGBs returns the effective write bandwidth.
func (s QueryStats) WriteGBs() float64 {
	if s.TimeNs == 0 {
		return 0
	}
	return float64(s.WriteBytes) / s.TimeNs
}

// RemotePct returns the percentage of reads that crossed sockets.
func (s QueryStats) RemotePct() float64 {
	if s.ReadBytes == 0 {
		return 0
	}
	return 100 * float64(s.RemoteBytes) / float64(s.ReadBytes)
}

// QPIPct returns the utilization of the most-utilized interconnect link.
func (s QueryStats) QPIPct() float64 {
	if s.TimeNs == 0 || s.LinkGBs == 0 {
		return 0
	}
	pct := 100 * float64(s.MaxLinkB) / (s.TimeNs * s.LinkGBs)
	if pct > 100 {
		pct = 100
	}
	return pct
}

// Run compiles and executes a single plan to completion, returning the
// result and execution statistics.
func (s *Session) Run(p *Plan) (*Result, QueryStats) {
	d := dispatch.NewDispatcher(s.Machine, s.Dispatch)
	cp := s.Compile(p)
	var workers []*dispatch.Worker
	stats := QueryStats{LinkGBs: s.Machine.Cost.LinkGBs}
	fabricBefore := s.Machine.Snapshot()

	switch s.Mode {
	case Sim:
		r := dispatch.NewSimRunner(d, s.SimCfg)
		workers = r.Workers()
		r.Run(dispatch.Arrival{Query: cp.Query})
		stats.TimeNs = cp.Query.EndV - cp.Query.StartV
	default:
		r := dispatch.NewRealRunner(d)
		workers = r.Workers()
		start := time.Now()
		if cp.HasStreams() {
			// Stream-fed jobs (stream scans, exchanges) bind their sources
			// after Submit, then the in-process producers drive them.
			r.Start()
			d.Submit(cp.Query)
			cp.BindStreams(d)
			<-cp.Query.Done()
			r.Stop()
		} else {
			r.RunToCompletion(cp.Query)
		}
		stats.TimeNs = float64(time.Since(start).Nanoseconds())
	}

	for _, w := range workers {
		st := w.Tracker.Stats()
		stats.ReadBytes += st.ReadBytes
		stats.WriteBytes += st.WriteBytes
		stats.RemoteBytes += st.RemoteReadBytes
		stats.Morsels += st.Morsels
		stats.Tuples += st.Tuples
	}
	stats.MaxLinkB = s.Machine.Snapshot().Sub(fabricBefore).MaxLinkBytes()
	return cp.Collect(), stats
}
