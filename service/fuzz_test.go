package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"containerdrone/internal/campaign"
)

// FuzzCampaignRequest feeds hostile bytes to the submit decoder: strict
// decoding plus Validate must never panic, every request it accepts
// must stay within the engine's run ceiling, and must re-marshal to
// bytes that decode to the same request and marshal identically again.
// No accepted request sets the seed key, which campaigns derive. The
// overflow requests seed it as requests the ceiling refuses.
func FuzzCampaignRequest(f *testing.F) {
	for _, req := range append([]CampaignRequest{
		sampleRequest(),
		{SchemaVersion: SchemaVersion, Scenario: "baseline", Runs: 1},
		{SchemaVersion: SchemaVersion, Scenario: "udpflood", Runs: 4, BaseSeed: 3, DurationS: 2},
	}, overflowRequests()...) {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, body := range []string{
		`{"schema_version":1,"scenario":"udpflood"}`,
		`{"schema_version":1,"scenario":"udpflood","params":{"seed":7}}`,
		`{"schema_version":1,"scenario":"udpflood","sweeps":[{"key":"seed","values":[1,2]}]}`,
		`{"schema_version":1,"scenario":"baseline","runz":4}`,
		`{"schema_version":1,"scenario":"baseline"}{"extra":true}`,
		`{"schema_version":2,"scenario":"baseline"}`,
		`{"schema_version":1,"scenario":"swarm-baseline","params":{"drones":3,"fleet.spacing":2}}`,
		`{"schema_version":1,"scenario":"mav-replay","duration_s":1e7,"params":{"fault.magnitude":64,"fault.rate":4000,"telemetry.rate":50}}`,
		`{"schema_version":1,"scenario":"prio-inv","sweeps":[{"key":"fault.magnitude","values":[1,95]}],"timeout_s":3}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeCampaignRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		// The run cap sees TotalRuns: it must never undercount the
		// grid, as a product that wrapped around would, and no
		// accepted request may cost more than the engine's ceiling.
		total := req.TotalRuns()
		if total > campaign.MaxRuns {
			t.Fatalf("accepted a request of %d runs, above the ceiling of %d", total, campaign.MaxRuns)
		}
		if total < max(req.Runs, 1) {
			t.Fatalf("TotalRuns %d below runs %d", total, req.Runs)
		}
		for _, sw := range req.Sweeps {
			if total < len(sw.Values) {
				t.Fatalf("TotalRuns %d below a sweep of %d values", total, len(sw.Values))
			}
			if sw.Key == "seed" {
				t.Fatalf("accepted a sweep of the seed key: %+v", req)
			}
		}
		if _, ok := req.Params["seed"]; ok {
			t.Fatalf("accepted the seed key in params: %+v", req.Params)
		}
		first, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		again, err := DecodeCampaignRequest(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("accepted request %s re-decodes with %v", first, err)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-marshal not byte-identical:\n first %s\nsecond %s", first, second)
		}
	})
}

// FuzzJournalReplay damages a journal the way a crash or a bad disk
// can, truncating it and flipping the bits of one byte, and reopens
// it. Replay must never panic, must keep every job whose accept line
// came through intact and that was never settled, and must never
// replay a job whose done line came through intact.
//
// The script builds the journal: each byte appends one line, an accept
// of a new job when the byte is even, else a done of the job the byte
// picks among those accepted so far.
func FuzzJournalReplay(f *testing.F) {
	// The torn-tail test's journal: two accepts, one settled.
	f.Add([]byte{0, 2, 1}, uint32(1<<31), uint32(0), byte(0))
	f.Add([]byte{0, 2, 1}, uint32(130), uint32(0), byte(0))
	// A flip that turns the done of j-00000001 into one of j-00000002.
	f.Add([]byte{0, 2, 1}, uint32(1<<31), uint32(276), byte(0x03))
	f.Add([]byte{0, 2, 4, 1, 3}, uint32(1<<31), uint32(60), byte(0x01))
	f.Add([]byte{0, 1, 2, 3, 4, 5}, uint32(1<<31), uint32(200), byte(0x1a))
	f.Fuzz(func(t *testing.T, script []byte, cut, flipAt uint32, mask byte) {
		if len(script) > 32 {
			return
		}
		type line struct {
			start, end int // bytes [start, end) including the newline
			id         string
			done       bool
		}
		var (
			data  []byte
			lines []line
			ids   []string
		)
		for _, op := range script {
			e := journalEntry{Op: "done"}
			if op%2 == 0 || len(ids) == 0 {
				req := CampaignRequest{SchemaVersion: SchemaVersion, Scenario: "baseline", Runs: int(op)}
				e = journalEntry{Op: "accept", JobID: fmt.Sprintf("j-%08d", len(ids)+1), Tenant: "t", Request: &req}
				ids = append(ids, e.JobID)
			} else {
				e.JobID = ids[int(op/2)%len(ids)]
			}
			start := len(data)
			var err error
			if data, err = appendLine(data, e); err != nil {
				t.Fatal(err)
			}
			lines = append(lines, line{start: start, end: len(data), id: e.JobID, done: e.Op == "done"})
		}

		// The damage, and which lines it leaves intact: a line is intact
		// when it and the newline before it are unchanged.
		size := len(data)
		if int64(cut) < int64(size) {
			size = int(cut)
		}
		flip := -1
		if mask != 0 && size > 0 {
			flip = int(flipAt) % size
		}
		damaged := append([]byte(nil), data[:size]...)
		if flip >= 0 {
			damaged[flip] ^= mask
		}
		intact := func(l line) bool {
			return l.end <= size && (flip < l.start-1 || flip >= l.end)
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalFile), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		pending := map[string]bool{}
		for _, p := range j.Pending() {
			pending[p.ID] = true
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		settled := map[string]bool{}
		for _, l := range lines {
			if l.done {
				settled[l.id] = true
			}
		}
		for _, l := range lines {
			switch {
			case !intact(l):
			case l.done && pending[l.id]:
				t.Fatalf("settled job %s replays", l.id)
			case !l.done && !settled[l.id] && !pending[l.id]:
				t.Fatalf("intact accept of unsettled job %s dropped", l.id)
			}
		}

		// Compaction is a fixed point: a second open replays the same.
		j2, err := OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		again := j2.Pending()
		if len(again) != len(pending) {
			t.Fatalf("second open replays %d jobs, first %d", len(again), len(pending))
		}
		for _, p := range again {
			if !pending[p.ID] {
				t.Fatalf("second open replays %s, first did not", p.ID)
			}
		}
	})
}
