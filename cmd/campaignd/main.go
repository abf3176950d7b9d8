// Command campaignd serves containerdrone campaigns over HTTP: a
// long-running, multi-tenant simulation backend. Clients POST
// versioned JSON campaign requests; campaignd queues them onto a
// bounded queue feeding a fleet of persistent workers, each job warm
// across its own runs, and streams records back over SSE plus
// aggregates over plain JSON.
//
//	campaignd -addr :8080 -workers 4 -queue 128
//	campaignd -quota-rate 5 -quota-burst 10 -max-in-flight 4
//
// Submit and watch:
//
//	curl -s -XPOST -d '{"schema_version":1,"scenario":"udpflood","runs":16}' \
//	    localhost:8080/v1/campaigns
//	curl -N localhost:8080/v1/jobs/j-00000001/records
//	curl -s localhost:8080/metrics
//
// On SIGINT/SIGTERM campaignd drains gracefully: /healthz flips to
// 503, new submissions are rejected, every accepted job runs to
// completion (bounded by -drain-timeout, after which in-flight jobs
// are canceled and return partial results), then the process exits.
//
// With -journal <dir> accepted jobs are also durable: each admission
// is fsynced to a write-ahead journal before the 202 goes out, and a
// campaignd killed without draining (kill -9, OOM, power loss)
// replays every unsettled job when it boots over the same directory —
// at-least-once execution for every acknowledged submission.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"containerdrone/cliutil"
	"containerdrone/service"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		workers       = flag.Int("workers", 0, "persistent campaign workers (0 = GOMAXPROCS)")
		queue         = flag.Int("queue", 64, "bounded job queue depth (full queue rejects with 429)")
		jobParallel   = flag.Int("job-parallel", 1, "campaign workers per job")
		quotaRate     = flag.Float64("quota-rate", 0, "per-tenant submissions/s token-bucket refill (0 = unlimited)")
		quotaBurst    = flag.Int("quota-burst", 1, "per-tenant token-bucket burst")
		maxInFlight   = flag.Int("max-in-flight", 0, "per-tenant queued+running job cap (0 = unlimited)")
		maxRuns       = flag.Int("max-runs", 65536, "per-job total run cap; the engine ceilings of 65536 points and 1048576 runs bound it")
		jobTimeout    = flag.Duration("job-timeout", 60*time.Second, "default per-job deadline")
		maxTimeout    = flag.Duration("max-job-timeout", 10*time.Minute, "cap on request-supplied deadlines")
		drainTimeout  = flag.Duration("drain-timeout", 5*time.Minute, "graceful-drain bound; in-flight jobs are canceled past it")
		journalDir    = flag.String("journal", "", "durable job journal directory: accepted jobs survive a crash and replay on the next boot")
		chaosPanicJob = flag.Int("chaos-panic-job", 0, "TESTING: panic the worker running job j-<n> on its first attempt")
	)
	flag.Parse()

	cfg := service.Config{
		Workers:              *workers,
		QueueDepth:           *queue,
		JobParallel:          *jobParallel,
		QuotaRate:            *quotaRate,
		QuotaBurst:           *quotaBurst,
		MaxInFlightPerTenant: *maxInFlight,
		MaxRunsPerJob:        *maxRuns,
		DefaultTimeout:       *jobTimeout,
		MaxTimeout:           *maxTimeout,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "campaignd: "+format+"\n", args...)
		},
	}
	if *journalDir != "" {
		jl, err := service.OpenJournal(*journalDir)
		if err != nil {
			fatal(err)
		}
		defer jl.Close()
		cfg.Journal = jl
	}
	if *chaosPanicJob > 0 {
		target := fmt.Sprintf("j-%08d", *chaosPanicJob)
		cfg.ChaosHook = func(jobID string, attempt int) {
			if jobID == target && attempt == 0 {
				panic("chaos: injected worker panic for " + jobID)
			}
		}
	}

	svc := service.NewServer(cfg)
	if n := svc.Metrics().JournalReplays; n > 0 {
		fmt.Printf("campaignd: replaying %d incomplete jobs from journal\n", n)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: svc}

	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("campaignd listening on %s\n", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	fmt.Println("campaignd: draining (completing accepted jobs, rejecting new ones)")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "campaignd: drain timed out, in-flight jobs canceled: %v\n", err)
	}
	// Jobs are settled; now close the listener and let SSE followers
	// finish reading their done events.
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fatal(err)
	}
	m := svc.Metrics()
	fmt.Printf("campaignd: drained cleanly (%d jobs completed, %d failed, %d canceled, %d runs)\n",
		m.Completed, m.Failed, m.Canceled, m.RunsCompleted)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "campaignd:", err)
	os.Exit(1)
}
