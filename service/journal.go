package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// journalFile is the journal's file name inside its directory.
const journalFile = "jobs.wal"

// Journal is campaignd's durable job log: a JSON-lines write-ahead
// record of every accepted job, fsynced before the submitter hears
// 202, plus a matching "done" entry when the job reaches any terminal
// state. A campaignd killed mid-flight (power loss, OOM, kill -9)
// reopens the journal on boot, finds the accepts with no matching
// done, and re-enqueues them — at-least-once execution for every
// acknowledged job. See the package documentation for the format and
// the delivery contract.
type Journal struct {
	path string

	mu sync.Mutex
	f  *os.File

	pending []PendingJob
	maxID   int64
}

// PendingJob is one journal entry awaiting replay: a job the previous
// process accepted but never settled.
type PendingJob struct {
	ID      string
	Tenant  string
	Request CampaignRequest
}

// journalEntry is one journal line. Request rides only on accepts.
type journalEntry struct {
	Op      string           `json:"op"` // "accept" | "done"
	JobID   string           `json:"job_id"`
	Tenant  string           `json:"tenant,omitempty"`
	Request *CampaignRequest `json:"request,omitempty"`
}

// OpenJournal opens (creating if needed) the journal in dir, replays
// its history to find incomplete jobs, compacts the file down to just
// those, and returns the journal ready for appends. Pending jobs are
// exposed via Pending for the server to re-enqueue; MaxID restores the
// ID counter so replayed and new jobs never collide.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j := &Journal{path: filepath.Join(dir, journalFile)}
	if err := j.replay(); err != nil {
		return nil, fmt.Errorf("journal: replay %s: %w", j.path, err)
	}
	if err := j.compact(); err != nil {
		return nil, fmt.Errorf("journal: compact %s: %w", j.path, err)
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	j.f = f
	return j, nil
}

// replay reads the journal left by the previous process, pairing
// accepts with dones. A missing file is an empty journal.
func (j *Journal) replay() error {
	f, err := os.Open(j.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	open := make(map[string]*PendingJob)
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e journalEntry
		if !decodeLine(line, &e) {
			// A torn tail or a damaged line: its checksum fails, so it
			// can neither forge an entry nor hide the intact ones
			// after it.
			continue
		}
		switch e.Op {
		case "accept":
			if e.Request == nil {
				continue
			}
			if _, dup := open[e.JobID]; !dup {
				order = append(order, e.JobID)
			}
			open[e.JobID] = &PendingJob{ID: e.JobID, Tenant: e.Tenant, Request: *e.Request}
			if n := jobNum(e.JobID); n > j.maxID {
				j.maxID = n
			}
		case "done":
			delete(open, e.JobID)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for _, id := range order {
		if p, ok := open[id]; ok {
			j.pending = append(j.pending, *p)
			delete(open, id)
		}
	}
	return nil
}

// compact rewrites the journal to just the pending accepts — the only
// entries a future boot needs — via write-temp/fsync/rename, so a
// crash mid-compaction leaves either the old journal or the new one,
// never a mix.
func (j *Journal) compact() error {
	tmp := j.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	for i := range j.pending {
		p := &j.pending[i]
		b, err := appendLine(nil, journalEntry{Op: "accept", JobID: p.ID, Tenant: p.Tenant, Request: &p.Request})
		if err != nil {
			f.Close()
			return err
		}
		if _, err := f.Write(b); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(j.path))
}

// Accept durably records an admitted job. The server calls it after
// allocating the job ID and before acknowledging the submitter, so an
// acknowledged job is always either settled or replayable.
func (j *Journal) Accept(id, tenant string, req CampaignRequest) error {
	return j.append(journalEntry{Op: "accept", JobID: id, Tenant: tenant, Request: &req})
}

// Done durably records a job reaching any terminal state (done,
// failed, or canceled) — the entry that stops a job from replaying.
func (j *Journal) Done(id string) error {
	return j.append(journalEntry{Op: "done", JobID: id})
}

// append writes one entry as a single write(2) followed by fsync:
// the line is either fully on disk or (torn tail) ignored on replay.
func (j *Journal) append(e journalEntry) error {
	b, err := appendLine(nil, e)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	if _, err := j.f.Write(b); err != nil {
		return err
	}
	return j.f.Sync()
}

// Pending returns the jobs the previous process accepted but never
// settled, in their original accept order.
func (j *Journal) Pending() []PendingJob {
	out := make([]PendingJob, len(j.pending))
	copy(out, j.pending)
	return out
}

// MaxID returns the highest numeric job ID the journal has seen, so a
// restarted server resumes its ID sequence past every journaled job.
func (j *Journal) MaxID() int64 { return j.maxID }

// Close closes the journal file. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// appendLine appends e's journal line to dst: the CRC-32 (IEEE) of the
// entry's JSON as 8 hex digits, a space, the JSON, and a newline.
func appendLine(dst []byte, e journalEntry) ([]byte, error) {
	b, err := json.Marshal(e)
	if err != nil {
		return dst, err
	}
	dst = fmt.Appendf(dst, "%08x ", crc32.ChecksumIEEE(b))
	return append(append(dst, b...), '\n'), nil
}

// decodeLine decodes one journal line into e and reports whether its
// checksum held. A bare JSON line, as journals written before the
// checksum carry, is taken as it is.
func decodeLine(line []byte, e *journalEntry) bool {
	if len(line) > 0 && line[0] == '{' {
		return json.Unmarshal(line, e) == nil
	}
	if len(line) < 9 || line[8] != ' ' {
		return false
	}
	sum, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil || uint32(sum) != crc32.ChecksumIEEE(line[9:]) {
		return false
	}
	return json.Unmarshal(line[9:], e) == nil
}

// jobNum extracts the numeric suffix of a "j-%08d" job ID; foreign
// IDs count as zero.
func jobNum(id string) int64 {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "j-"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// syncDir fsyncs a directory so a just-renamed file inside it survives
// power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
