package tracestore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// ResultLog is the persistent per-tenant results store: an append-only
// JSONL file per tenant, where a record's sequence number is its 1-based
// line number. Appends are serialised in-process and written as single
// lines, and List reads only acknowledged records, so readers never observe
// a torn record. A restarted node resumes numbering by counting existing
// lines, after cutting off the torn tail a crash mid-append can leave.
//
// Layout: <dir>/<tenant>.jsonl
type ResultLog struct {
	dir string

	mu   sync.Mutex
	seqs map[string]int64 // tenant -> last assigned seq, lazily counted
}

// NewResultLog returns a log rooted at dir, created lazily on first append.
func NewResultLog(dir string) *ResultLog {
	return &ResultLog{dir: dir, seqs: map[string]int64{}}
}

// Dir returns the log's root directory.
func (l *ResultLog) Dir() string { return l.dir }

func (l *ResultLog) path(tenant string) string {
	return filepath.Join(l.dir, tenant+".jsonl")
}

// ResultEntry is one logged record with its sequence number, the pagination
// cursor for GET /v1/results.
type ResultEntry struct {
	Seq    int64           `json:"seq"`
	Record json.RawMessage `json:"record"`
}

// Append marshals rec onto the tenant's log and returns its sequence
// number. rec must marshal to a single JSON value (it is stored compactly
// on one line).
func (l *ResultLog) Append(tenant string, rec any) (int64, error) {
	if !ValidTenant(tenant) {
		return 0, fmt.Errorf("tracestore: invalid tenant %q", tenant)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("tracestore: marshal result: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	last, err := l.lastSeqLocked(tenant)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return 0, err
	}
	f, err := os.OpenFile(l.path(tenant), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		// The record was never acknowledged: cut it back off, or failing
		// that, recount (and repair) the log on the next touch.
		if f.Truncate(fi.Size()) != nil {
			delete(l.seqs, tenant)
		}
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		delete(l.seqs, tenant)
		return 0, err
	}
	l.seqs[tenant] = last + 1
	return last + 1, nil
}

// maxListLimit caps one List page.
const maxListLimit = 1000

// List returns up to limit records with Seq > after, in order. limit <= 0
// or > 1000 means 1000. A tenant with no log lists empty, not an error.
func (l *ResultLog) List(tenant string, after int64, limit int) ([]ResultEntry, error) {
	if !ValidTenant(tenant) {
		return nil, fmt.Errorf("tracestore: invalid tenant %q", tenant)
	}
	if limit <= 0 || limit > maxListLimit {
		limit = maxListLimit
	}
	l.mu.Lock()
	last, err := l.lastSeqLocked(tenant)
	l.mu.Unlock()
	if err != nil || last <= after {
		return nil, err
	}
	f, err := os.Open(l.path(tenant))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	var out []ResultEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	var seq int64
	for seq < last && sc.Scan() {
		seq++
		if seq <= after {
			continue
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		out = append(out, ResultEntry{Seq: seq, Record: json.RawMessage(append([]byte(nil), line...))})
		if len(out) >= limit {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// lastSeqLocked returns the tenant's last assigned sequence number. On
// first touch it counts the log's lines and truncates the log after its
// last newline: the bytes beyond it are a record whose append never
// returned, and left in place they would glue the next record onto it.
func (l *ResultLog) lastSeqLocked(tenant string) (int64, error) {
	if seq, ok := l.seqs[tenant]; ok {
		return seq, nil
	}
	f, err := os.OpenFile(l.path(tenant), os.O_RDWR, 0)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	var seq, size, end int64
	buf := make([]byte, 64<<10)
	for {
		n, err := f.Read(buf)
		seq += int64(bytes.Count(buf[:n], []byte{'\n'}))
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			end = size + int64(i) + 1
		}
		size += int64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	if size > end {
		if err := f.Truncate(end); err != nil {
			return 0, err
		}
	}
	l.seqs[tenant] = seq
	return seq, nil
}
