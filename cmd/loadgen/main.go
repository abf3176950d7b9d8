// Command loadgen drives a running campaignd server with many
// concurrent synthetic clients; perfbench's service-journal workload is
// the measured, in-process counterpart. Each client loops: submit a
// small campaign (wait-mode, so one request is one full
// submit→simulate→aggregate round trip), record the outcome and
// latency, honor Retry-After on backpressure rejections, repeat until
// the wall-clock budget expires.
//
//	loadgen -addr http://localhost:8080 -clients 500 -duration 30s
//	loadgen -clients 64 -scenario udpflood -runs 4 -tenants 8
//
// The report prints completed/retried/failed counts, end-to-end
// latency percentiles, and sustained requests/s and runs/s — the
// numbers EXPERIMENTS.md tracks for the service.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"containerdrone/service"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "campaignd base URL")
		clients  = flag.Int("clients", 100, "concurrent client goroutines")
		duration = flag.Duration("duration", 15*time.Second, "wall-clock load duration")
		scenario = flag.String("scenario", "baseline", "scenario each request runs")
		runs     = flag.Int("runs", 1, "runs per request")
		simDur   = flag.Duration("sim-duration", 500*time.Millisecond, "simulated flight length per run")
		tenants  = flag.Int("tenants", 1, "distinct tenant names to spread clients across")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request job deadline")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	deadline, cancel := context.WithTimeout(ctx, *duration)
	defer cancel()

	req := service.CampaignRequest{
		Scenario:  *scenario,
		Runs:      *runs,
		DurationS: simDur.Seconds(),
		TimeoutS:  timeout.Seconds(),
	}

	var (
		completed, retried, failed, runsDone atomic.Int64
		mu                                   sync.Mutex
		latencies                            []float64
	)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := service.NewClient(*addr, fmt.Sprintf("tenant-%d", i%*tenants))
			// Backpressure retry lives in the client now: exponential
			// backoff with full jitter, honoring the server's
			// Retry-After hint. The budget is effectively unbounded —
			// the deadline context is what ends the loop.
			cl.Retry = service.Retry{
				MaxAttempts: 1 << 30,
				OnRetry: func(int, *service.APIError, time.Duration) {
					retried.Add(1)
				},
			}
			for deadline.Err() == nil {
				t0 := time.Now()
				st, err := cl.SubmitWait(deadline, req)
				switch {
				case err == nil && st.Status == service.StatusDone && st.Error == "":
					completed.Add(1)
					runsDone.Add(int64(st.RunsDone))
					mu.Lock()
					latencies = append(latencies, time.Since(t0).Seconds())
					mu.Unlock()
				case deadline.Err() != nil:
					return
				default:
					failed.Add(1)
					// Back off on transport errors (server gone,
					// connection refused) instead of hot-looping.
					select {
					case <-time.After(100 * time.Millisecond):
					case <-deadline.Done():
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	sort.Float64s(latencies)
	pct := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p*float64(len(latencies))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(latencies) {
			i = len(latencies) - 1
		}
		return latencies[i]
	}
	fmt.Printf("loadgen: %d clients × %v against %s (%s, %d runs × %v sim)\n",
		*clients, *duration, *addr, *scenario, *runs, *simDur)
	fmt.Printf("  completed %d   retried(backpressure) %d   failed %d\n",
		completed.Load(), retried.Load(), failed.Load())
	fmt.Printf("  requests/s %.1f   runs/s %.1f\n",
		float64(completed.Load())/wall, float64(runsDone.Load())/wall)
	fmt.Printf("  latency p50 %.1fms  p90 %.1fms  p99 %.1fms  max %.1fms\n",
		pct(0.50)*1e3, pct(0.90)*1e3, pct(0.99)*1e3, pct(1.0)*1e3)
	if failed.Load() > 0 {
		os.Exit(1)
	}
}
