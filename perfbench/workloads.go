package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"containerdrone"
	"containerdrone/service"
)

// instance is one set-up workload, ready to run operations.
type instance interface {
	// op runs operation i of load client c and checks its output. The
	// returned duration is the time spent in the system, excluding the
	// benchmark's own checks. Spans go to tr under parent; tr is nil
	// outside traced sub-windows.
	op(c, i int, tr *tracer, parent int64) (opResult, error)
	// layer returns the per-layer values the workload knows after its
	// window: exact counts and, when traced, direct timings of single
	// calls into a layer.
	layer(traced bool) (map[string]float64, error)
	close() error
}

// opResult is what one operation did.
type opResult struct {
	dur   time.Duration
	ticks int64 // engine ticks executed
	units int   // runs (flights, campaigns) or jobs (service) it carried
	// checkBytes is what the operation's checks allocated.
	checkBytes uint64
}

// workload is one named input set of the benchmark.
type workload struct {
	name, why string
	// clients is the number of closed-loop load goroutines, each of
	// which sends its next operation when the previous one returns.
	clients int
	// heapOps is how many operations run before the live heap is taken.
	heapOps int
	setup   func(seed uint64) (instance, error)
}

// workloads is the benchmark's input set; BENCHMARK.json repeats each
// name and reason.
var workloads = []workload{
	{
		name:    "flight-baseline",
		why:     "serial 30 s attack-free SDK flights: ticks/s of one flight, where physics and sched dominate and netsim idles",
		clients: 1,
		heapOps: 16,
		setup:   func(seed uint64) (instance, error) { return newFlight("baseline", seed) },
	},
	{
		name:    "flight-flood",
		why:     "serial 30 s flights under the Fig. 7 UDP flood: netsim rings, iptables bucket, MAVLink garbage decode, monitor and Simplex switch",
		clients: 1,
		heapOps: 16,
		setup:   func(seed uint64) (instance, error) { return newFlight("udpflood", seed) },
	},
	{
		name:    "campaign-fork",
		why:     "gps-spoof fault.rate sweep campaigns on 2 workers with prefix sharing: worker pool, fork planner, snapshot/restore, aggregation, emit",
		clients: 1,
		heapOps: 16,
		setup:   newCampaignFork,
	},
	{
		name:    "service-journal",
		why:     "2 closed-loop clients on a journaled campaignd over loopback: per-job decode, validate, fsync, queue, build and HTTP/SSE cost",
		clients: 2,
		heapOps: 2048,
		setup:   newServiceJournal,
	},
}

// seedCycle is how many distinct seeds a workload cycles through, so a
// window repeats each input many times and every repeat can be checked
// against the first.
const seedCycle = 8

// mix derives a well-spread value from (a, b) with the splitmix64
// finalizer.
func mix(a, b uint64) uint64 {
	z := a + (b+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// deriveSeeds returns the workload's seed cycle for the benchmark seed.
// Seeds are non-zero: zero selects a scenario's preset seed.
func deriveSeeds(seed uint64) []uint64 {
	out := make([]uint64, seedCycle)
	for k := range out {
		out[k] = mix(seed, uint64(k))%1_000_000 + 1
	}
	return out
}

// digest is the FNV-64a hash of v's JSON encoding, the fingerprint the
// golden traces pin.
func digest(v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(raw)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// allocatedBytes returns the bytes the process has allocated so far.
// Operations count what their own checks allocate, so that
// alloc_bytes_per_op is the system's allocation, not the benchmark's.
// ReadMemStats flushes every per-P cache, which makes the count exact;
// its brief stop of the world costs well under 0.1% of an operation.
func allocatedBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// firstSeen pins one digest per seed: the first digest seen for a seed
// becomes the reference every later digest for it must equal.
type firstSeen map[uint64]string

// check records d for seed, or compares it with the reference; first
// reports whether d became the reference.
func (f firstSeen) check(seed uint64, d string) (first bool, err error) {
	want, ok := f[seed]
	if !ok {
		f[seed] = d
		return true, nil
	}
	if d != want {
		return false, fmt.Errorf("seed %d: output digest %s differs from the first run's %s", seed, d, want)
	}
	return false, nil
}

// flightDuration is the simulated length of a timed flight: the
// paper's figure length, long enough for the flood at 8 s to be
// detected and ridden out.
const flightDuration = 30 * time.Second

type flight struct {
	scenario string
	seeds    []uint64
	ref      firstSeen
	counts   map[string]float64
	detectMS []float64
}

// newFlight checks the scenario against its golden trace, then flies
// one untimed warm-up flight.
func newFlight(scenario string, seed uint64) (instance, error) {
	f := &flight{scenario: scenario, seeds: deriveSeeds(seed), ref: firstSeen{}, counts: map[string]float64{}}
	if err := f.checkGolden(); err != nil {
		return nil, err
	}
	if _, err := f.op(0, 0, nil, 0); err != nil {
		return nil, fmt.Errorf("warm-up flight: %w", err)
	}
	return f, nil
}

// checkGolden re-flies the scenario's golden run and compares the
// result digest with the one committed in testdata/golden.
func (f *flight) checkGolden() error {
	path := filepath.Join("testdata", "golden", f.scenario+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var g struct {
		Seed   uint64 `json:"seed"`
		Digest string `json:"result_digest"`
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	sim, err := containerdrone.New(f.scenario, containerdrone.WithSeed(g.Seed))
	if err != nil {
		return err
	}
	res, err := sim.Run(context.Background())
	if err != nil {
		return err
	}
	d, err := digest(res)
	if err != nil {
		return err
	}
	if d != g.Digest {
		return fmt.Errorf("%s seed %d: result digest %s, golden %s", f.scenario, g.Seed, d, g.Digest)
	}
	return nil
}

func (f *flight) op(_, i int, tr *tracer, parent int64) (r opResult, err error) {
	seed := f.seeds[i%len(f.seeds)]
	t0 := time.Now()
	sim, err := containerdrone.New(f.scenario, containerdrone.WithSeed(seed), containerdrone.WithDuration(flightDuration))
	t1 := time.Now()
	if err != nil {
		return opResult{dur: t1.Sub(t0)}, err
	}
	res, err := sim.Run(context.Background())
	t2 := time.Now()
	tr.child(parent, "sdk.run", tr.child(parent, "sdk.new", t0, t1), t2)
	r = opResult{dur: t2.Sub(t0), units: 1}
	if err != nil {
		return r, err
	}
	defer func(a uint64) { r.checkBytes = allocatedBytes() - a }(allocatedBytes())
	r.ticks = int64(math.Round(res.DurationS * containerdrone.TicksPerSecond))
	d, err := digest(res)
	if err != nil {
		return r, err
	}
	first, err := f.ref.check(seed, d)
	if first {
		f.count(res)
	}
	return r, err
}

// count adds one flight's outcome to the exact counts, once per seed.
func (f *flight) count(res *containerdrone.Result) {
	for _, s := range res.Streams {
		f.counts["net.packets"] += float64(s.Packets)
	}
	f.counts["net.garbage_pkts"] += float64(res.GarbagePkts)
	for _, t := range res.Tasks {
		f.counts["sched.jobs_released"] += float64(t.Released)
		f.counts["sched.deadline_misses"] += float64(t.Missed)
	}
	f.counts["monitor.violations"] += float64(len(res.Violations))
	if res.Switched {
		f.detectMS = append(f.detectMS, (res.SwitchS-res.Attack.StartS)*1e3)
	}
}

func (f *flight) layer(bool) (map[string]float64, error) {
	out := map[string]float64{"monitor.detect_ms": 0}
	for k, v := range f.counts {
		out[k] = v
	}
	for _, d := range f.detectMS {
		out["monitor.detect_ms"] += d / float64(len(f.detectMS))
	}
	return out, nil
}

func (f *flight) close() error { return nil }

// The fork sweep varies only a knob that acts after the gps-spoof onset
// at 10 s, so a 12 s flight shares ten-twelfths of its ticks across the
// four variants (a prefix-share ratio of 0.625).
var (
	forkSweep  = []float64{0.5, 1, 2, 4}
	forkRuns   = 4
	forkFlight = 12 * time.Second
)

type campaignFork struct {
	seeds []uint64
	ref   firstSeen
	stats containerdrone.CampaignStats
}

// newCampaignFork checks that a campaign's aggregates do not depend on
// its worker count, then runs one untimed warm-up campaign.
func newCampaignFork(seed uint64) (instance, error) {
	w := &campaignFork{seeds: deriveSeeds(seed), ref: firstSeen{}}
	var ds [2]string
	for k, parallel := range []int{1, 2} {
		res, err := w.campaign(w.seeds[0], parallel, func(containerdrone.Record) {}).Run(context.Background())
		if err != nil {
			return nil, err
		}
		if ds[k], err = digest(res.Aggregates); err != nil {
			return nil, err
		}
	}
	if ds[0] != ds[1] {
		return nil, fmt.Errorf("campaign aggregates differ between 1 worker (%s) and 2 (%s)", ds[0], ds[1])
	}
	if _, err := w.op(0, 0, nil, 0); err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	return w, nil
}

func (w *campaignFork) campaign(seed uint64, parallel int, observe func(containerdrone.Record)) *containerdrone.Campaign {
	return containerdrone.NewCampaign("gps-spoof",
		containerdrone.WithRuns(forkRuns),
		containerdrone.WithRunDuration(forkFlight),
		containerdrone.WithSweep("fault.rate", forkSweep...),
		containerdrone.WithParallel(parallel),
		containerdrone.WithPrefixSharing(true),
		containerdrone.WithBaseSeed(seed),
		containerdrone.WithRecordObserver(observe))
}

func (w *campaignFork) op(_, i int, tr *tracer, parent int64) (r opResult, err error) {
	seed := w.seeds[i%len(w.seeds)]
	stream, done, err := containerdrone.StreamRecordsCSV(io.Discard)
	if err != nil {
		return opResult{}, err
	}
	streamed := 0
	observe := func(r containerdrone.Record) {
		start := time.Now()
		stream(r)
		streamed++
		if tr != nil {
			tr.child(parent, "campaign.emit", start, time.Now())
		}
	}
	t0 := time.Now()
	res, err := w.campaign(seed, 2, observe).Run(context.Background())
	t1 := time.Now()
	tr.child(parent, "campaign.run", t0, t1)
	total := forkRuns * len(forkSweep)
	r = opResult{dur: t1.Sub(t0), units: total}
	if err != nil {
		return r, err
	}
	defer func(a uint64) { r.checkBytes = allocatedBytes() - a }(allocatedBytes())
	if err := done(); err != nil {
		return r, fmt.Errorf("records stream: %w", err)
	}
	r.ticks = res.Stats.TicksFlown
	if len(res.Records) != total || streamed != total {
		return r, fmt.Errorf("campaign returned %d records and streamed %d, want %d", len(res.Records), streamed, total)
	}
	for _, rec := range res.Records {
		if rec.Err != "" {
			return r, fmt.Errorf("run %s/%d: %s", rec.Point, rec.Run, rec.Err)
		}
	}
	d, err := digest(res.Aggregates)
	if err != nil {
		return r, err
	}
	first, err := w.ref.check(seed, d)
	if first {
		w.stats.TicksFlown += res.Stats.TicksFlown
		w.stats.TicksSaved += res.Stats.TicksSaved
		w.stats.ForkedRuns += res.Stats.ForkedRuns
	}
	return r, err
}

func (w *campaignFork) layer(bool) (map[string]float64, error) {
	s := w.stats
	ratio := 0.0
	if s.TicksFlown+s.TicksSaved > 0 {
		ratio = float64(s.TicksSaved) / float64(s.TicksFlown+s.TicksSaved)
	}
	return map[string]float64{
		"campaign.ticks_flown":        float64(s.TicksFlown),
		"campaign.ticks_saved":        float64(s.TicksSaved),
		"campaign.forked_runs":        float64(s.ForkedRuns),
		"campaign.prefix_share_ratio": ratio,
	}, nil
}

func (w *campaignFork) close() error { return nil }

// The service mix: three synchronous one-run jobs to one streamed
// four-run job, in an order drawn from the seed. Jobs are short, so
// per-job overhead, not flight time, is most of each request.
const (
	svcDeck       = 4 // requests per shuffled deck, one of them streamed
	svcWaitRuns   = 1
	svcStreamRuns = 4
	svcFlightS    = 0.5
	// svcRetention bounds the terminal jobs the server keeps queryable,
	// so the live heap reaches a steady state within the first second
	// instead of growing with the number of requests a window fits.
	svcRetention = 1024
)

// workDir holds the files the workloads write, inside the checkout.
var workDir = filepath.Join(".perfbench", "work")

type serviceJournal struct {
	seed    uint64
	dir     string
	journal *service.Journal
	srv     *service.Server
	hs      *http.Server
	served  chan error
	clients []*service.Client
}

// newServiceJournal starts a journaled server on loopback, checks that
// a job's aggregates equal a direct SDK campaign of the same request,
// and sends one untimed warm-up request.
func newServiceJournal(seed uint64) (_ instance, err error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	s := &serviceJournal{seed: seed, served: make(chan error, 1)}
	if s.dir, err = os.MkdirTemp(workDir, "service-journal-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.journal, err = service.OpenJournal(filepath.Join(s.dir, "journal")); err != nil {
		return nil, err
	}
	s.srv = service.NewServer(service.Config{Workers: 2, Journal: s.journal, Retention: svcRetention})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.hs = &http.Server{Handler: s.srv}
	go func() { s.served <- s.hs.Serve(ln) }()
	for c := range 2 {
		cl := service.NewClient("http://"+ln.Addr().String(), fmt.Sprintf("tenant-%d", c))
		// One connection per client: the load is two connections.
		cl.HTTPClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		s.clients = append(s.clients, cl)
	}
	if err := s.checkEquivalence(); err != nil {
		return nil, err
	}
	if _, err := s.op(0, 0, nil, 0); err != nil {
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	return s, nil
}

// request returns operation i of client c: a pure function of (seed, c,
// i), so the warm-up and every window see the same sequence.
func (s *serviceJournal) request(c, i int) (req service.CampaignRequest, streamed bool) {
	deck := rand.New(rand.NewPCG(s.seed, uint64(c)<<32|uint64(i/svcDeck)))
	streamed = deck.Perm(svcDeck)[i%svcDeck] == 0
	req = service.CampaignRequest{
		SchemaVersion: service.SchemaVersion,
		Scenario:      "baseline",
		Runs:          svcWaitRuns,
		BaseSeed:      mix(s.seed, uint64(c)<<32|uint64(i))%1_000_000 + 1,
		DurationS:     svcFlightS,
	}
	if streamed {
		req.Runs = svcStreamRuns
	}
	return req, streamed
}

func (s *serviceJournal) checkEquivalence() error {
	req, _ := s.request(0, 0)
	req.Runs = svcStreamRuns
	ctx := context.Background()
	sub, err := s.clients[0].Submit(ctx, req)
	if err != nil {
		return err
	}
	st, err := s.clients[0].Wait(ctx, sub.JobID)
	if err != nil {
		return err
	}
	if err := checkJob(st, req.Runs); err != nil {
		return err
	}
	direct, err := containerdrone.NewCampaign(req.Scenario,
		containerdrone.WithRuns(req.Runs),
		containerdrone.WithBaseSeed(req.BaseSeed),
		containerdrone.WithRunDuration(time.Duration(req.DurationS*float64(time.Second))),
		containerdrone.WithParallel(1)).Run(ctx)
	if err != nil {
		return err
	}
	got, err := digest(st.Result.Aggregates)
	if err != nil {
		return err
	}
	want, err := digest(direct.Aggregates)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("service job %s aggregates %s differ from a direct SDK campaign's %s", st.JobID, got, want)
	}
	return nil
}

// checkJob requires a job to have finished cleanly with all its runs.
func checkJob(st service.JobStatus, runs int) error {
	if st.Status != service.StatusDone || st.Error != "" || st.Partial {
		return fmt.Errorf("job %s ended %s (error %q, partial %v)", st.JobID, st.Status, st.Error, st.Partial)
	}
	if st.RunsDone != runs || st.RunsTotal != runs || st.Result == nil || len(st.Result.Records) != runs {
		return fmt.Errorf("job %s: %d of %d runs done, want %d", st.JobID, st.RunsDone, st.RunsTotal, runs)
	}
	for _, r := range st.Result.Records {
		if r.Err != "" {
			return fmt.Errorf("job %s run %d: %s", st.JobID, r.Run, r.Err)
		}
	}
	return nil
}

func (s *serviceJournal) op(c, i int, tr *tracer, parent int64) (opResult, error) {
	req, streamed := s.request(c, i)
	cl := s.clients[c]
	ctx := context.Background()
	var st service.JobStatus
	var err error
	t0 := time.Now()
	if streamed {
		var sub service.SubmitResponse
		sub, err = cl.Submit(ctx, req)
		t1 := time.Now()
		if err == nil {
			var first time.Time
			st, err = cl.StreamRecords(ctx, sub.JobID, func(containerdrone.Record) {
				if first.IsZero() {
					first = time.Now()
				}
			})
			if !first.IsZero() {
				tr.child(parent, "svc.sse_first_record", t1, first)
			}
		}
		tr.child(parent, "svc.submit", t0, t1)
	} else {
		st, err = cl.SubmitWait(ctx, req)
	}
	end := time.Now()
	r := opResult{dur: end.Sub(t0), units: 1}
	if err != nil {
		return r, err
	}
	if err := checkJob(st, req.Runs); err != nil {
		return r, err
	}
	r.ticks = st.Result.Stats.TicksFlown
	if tr != nil {
		// The server reports queue wait and run time as durations; their
		// spans are placed back to back, ending with the request.
		ran := time.Duration(st.RanS * float64(time.Second))
		waited := time.Duration(st.WaitedS * float64(time.Second))
		runStart := end.Add(-ran)
		tr.child(parent, "svc.run", runStart, end)
		tr.child(parent, "svc.queue", runStart.Add(-waited), runStart)
		if !streamed {
			tr.child(parent, "svc.respond", t0, runStart.Add(-waited))
		}
	}
	return r, nil
}

// probeCalls is how many times each single layer call is timed in a
// traced run; the journal, which fsyncs twice per call, gets fewer.
const (
	probeCalls        = 200
	probeJournalCalls = 50
)

func (s *serviceJournal) layer(traced bool) (map[string]float64, error) {
	m := s.srv.Metrics()
	out := map[string]float64{
		"svc.accepted":     float64(m.Accepted),
		"svc.rejected":     float64(m.RejectedQuota + m.RejectedQueue + m.RejectedDrain),
		"svc.jobs_retried": float64(m.JobsRetried),
	}
	if !traced {
		return out, nil
	}
	req, _ := s.request(0, 0)
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	probeJournal, err := service.OpenJournal(filepath.Join(s.dir, "probe-journal"))
	if err != nil {
		return nil, err
	}
	defer probeJournal.Close()
	probes := []struct {
		name  string
		calls int
		call  func(i int) error
	}{
		{"svc.decode_us", probeCalls, func(int) error {
			_, err := service.DecodeCampaignRequest(bytes.NewReader(raw))
			return err
		}},
		{"svc.validate_us", probeCalls, func(int) error { return req.Validate() }},
		{"svc.journal_append_us", probeJournalCalls, func(i int) error {
			id := fmt.Sprintf("probe-%d", i)
			return errors.Join(probeJournal.Accept(id, "probe", req), probeJournal.Done(id))
		}},
		{"svc.metrics_scrape_us", probeCalls, func(int) error { s.srv.Metrics(); return nil }},
	}
	for _, p := range probes {
		us := make([]float64, p.calls)
		for i := range us {
			start := time.Now()
			if err := p.call(i); err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			us[i] = float64(time.Since(start).Nanoseconds()) / 1e3
		}
		out[p.name] = median(us)
	}
	return out, nil
}

// close drains the server, stops the HTTP listener, closes the journal
// and removes the work directory.
func (s *serviceJournal) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if s.srv != nil {
		errs = append(errs, s.srv.Shutdown(ctx))
	}
	if s.hs != nil {
		errs = append(errs, s.hs.Shutdown(ctx))
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	for _, cl := range s.clients {
		cl.HTTPClient.CloseIdleConnections()
	}
	if s.journal != nil {
		errs = append(errs, s.journal.Close())
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}
