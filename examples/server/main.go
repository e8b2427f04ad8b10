// Server: the engine as a concurrent query service, in one process. A
// morseld-style server is started on a loopback port; eight clients then
// hammer it concurrently — six batch rollups and two interactive
// lookups — and the per-class latencies show the dispatcher migrating
// workers to high-priority queries at morsel boundaries (Fig. 13 as a
// service).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

func main() {
	sys := core.NewSystem(core.Nehalem(), core.Options{Workers: 16, MorselRows: 20_000})

	b := core.NewTableBuilder("events", core.Schema{
		{Name: "id", Type: core.I64},
		{Name: "kind", Type: core.I64},
		{Name: "v", Type: core.F64},
	}, 64, "id")
	for i := 0; i < 3_000_000; i++ {
		b.Append(core.Row{int64(i), int64(i % 31), float64(i%1000) / 7})
	}
	events := sys.Register(b)

	srv := server.New(sys, server.Config{MaxConcurrent: 16})
	defer srv.Close()
	srv.RegisterTable(events)

	// The two statements the clients send: a full-table rollup and a
	// selective lookup. The server compiles each once into its plan cache.
	const (
		heavyReport = "SELECT kind, COUNT(*) AS n, SUM(v) AS sum_v, SUM(v * v) AS sum_w FROM events GROUP BY kind ORDER BY kind"
		quickLookup = "SELECT MAX(v) AS max_v FROM events WHERE id < 150000"
	)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n\n", base)

	// Eight closed-loop clients for two seconds: 6 batch, 2 interactive.
	type sample struct {
		class string
		lat   time.Duration
	}
	var mu sync.Mutex
	var samples []sample
	deadline := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		class, query := "batch", heavyReport
		if c < 2 {
			class, query = "interactive", quickLookup
		}
		wg.Add(1)
		go func(class, query string) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{"sql": query, "priority": class})
			for time.Now().Before(deadline) {
				start := time.Now()
				resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					log.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					log.Fatalf("query failed: %d", resp.StatusCode)
				}
				mu.Lock()
				samples = append(samples, sample{class, time.Since(start)})
				mu.Unlock()
			}
		}(class, query)
	}
	wg.Wait()

	for _, class := range []string{"interactive", "batch"} {
		var lats []time.Duration
		for _, s := range samples {
			if s.class == class {
				lats = append(lats, s.lat)
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		if len(lats) == 0 {
			continue
		}
		fmt.Printf("%-12s %4d queries  p50 %8s  p99 %8s\n", class, len(lats),
			lats[len(lats)/2].Round(10*time.Microsecond),
			lats[int(0.99*float64(len(lats)))].Round(10*time.Microsecond))
	}

	resp, err := http.Get(base + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Pool struct {
			Morsels       int64   `json:"morsels"`
			Tuples        int64   `json:"tuples"`
			RemoteReadPct float64 `json:"remote_read_pct"`
		} `json:"pool"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npool: %d morsels, %d tuples, %.1f%% remote reads\n",
		stats.Pool.Morsels, stats.Pool.Tuples, stats.Pool.RemoteReadPct)
	fmt.Println("interactive queries cut ahead at morsel boundaries: lower latency under full batch load")
}
