package tracestore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type rec struct {
	App string `json:"app"`
	N   int    `json:"n"`
}

func TestResultLogAppendAndList(t *testing.T) {
	l := NewResultLog(t.TempDir())
	for i := 1; i <= 5; i++ {
		seq, err := l.Append("alice", rec{App: "a", N: i})
		if err != nil {
			t.Fatal(err)
		}
		if seq != int64(i) {
			t.Fatalf("seq %d, want %d", seq, i)
		}
	}
	if seq, err := l.Append("bob", rec{App: "b", N: 1}); err != nil || seq != 1 {
		t.Fatalf("bob's first seq %d (%v), want 1", seq, err)
	}

	all, err := l.List("alice", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 || all[0].Seq != 1 || all[4].Seq != 5 {
		t.Fatalf("full list %v", all)
	}
	page, err := l.List("alice", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 2 || page[0].Seq != 3 || page[1].Seq != 4 {
		t.Fatalf("page after=2 limit=2: %v", page)
	}
	rest, err := l.List("alice", 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 1 || rest[0].Seq != 5 {
		t.Fatalf("tail page: %v", rest)
	}
	empty, err := l.List("nobody", 0, 0)
	if err != nil || len(empty) != 0 {
		t.Fatalf("unknown tenant: %v, %v", empty, err)
	}
}

func TestResultLogSeqSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	l := NewResultLog(dir)
	for i := 0; i < 3; i++ {
		if _, err := l.Append("alice", rec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	l2 := NewResultLog(dir)
	seq, err := l2.Append("alice", rec{N: 99})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Fatalf("restarted log assigned seq %d, want 4", seq)
	}
	entries, err := l2.List("alice", 3, 0)
	if err != nil || len(entries) != 1 || entries[0].Seq != 4 {
		t.Fatalf("restarted list: %v, %v", entries, err)
	}
}

func TestResultLogRejectsBadTenant(t *testing.T) {
	l := NewResultLog(t.TempDir())
	if _, err := l.Append("../evil", rec{}); err == nil {
		t.Fatal("path-traversal tenant accepted for append")
	}
	if _, err := l.List("../evil", 0, 0); err == nil {
		t.Fatal("path-traversal tenant accepted for list")
	}
}

// A crash mid-append leaves the log cut at any byte. Recovery keeps every
// complete record under its seq, lists nothing of the torn one, and the
// next append takes the following seq on a line of its own.
func TestResultLogRepairsTornTail(t *testing.T) {
	var full []byte
	var ends []int // byte offset just past each complete record
	for i := 1; i <= 3; i++ {
		line, err := json.Marshal(rec{App: "a", N: i})
		if err != nil {
			t.Fatal(err)
		}
		full = append(append(full, line...), '\n')
		ends = append(ends, len(full))
	}
	want := func(n int) []string {
		var out []string
		for i := 0; i < n; i++ {
			start := 0
			if i > 0 {
				start = ends[i-1]
			}
			out = append(out, string(full[start:ends[i]-1]))
		}
		return out
	}
	records := func(entries []ResultEntry) []string {
		var out []string
		for i, e := range entries {
			if e.Seq != int64(i+1) || !json.Valid(e.Record) {
				t.Errorf("entry %d: seq %d, record %q", i, e.Seq, e.Record)
			}
			out = append(out, string(e.Record))
		}
		return out
	}
	for cut := 0; cut <= len(full); cut++ {
		complete := 0
		for complete < len(ends) && ends[complete] <= cut {
			complete++
		}
		for _, listFirst := range []bool{false, true} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "alice.jsonl"), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			l := NewResultLog(dir)
			if listFirst {
				got, err := l.List("alice", 0, 0)
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				if g := records(got); !reflect.DeepEqual(g, want(complete)) {
					t.Errorf("cut %d: listed %q before appending, want %q", cut, g, want(complete))
				}
			}
			seq, err := l.Append("alice", rec{App: "z", N: 99})
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			if seq != int64(complete+1) {
				t.Errorf("cut %d: append took seq %d, want %d", cut, seq, complete+1)
			}
			got, err := l.List("alice", 0, 0)
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			if g, w := records(got), append(want(complete), `{"app":"z","n":99}`); !reflect.DeepEqual(g, w) {
				t.Errorf("cut %d: listed %q, want %q", cut, g, w)
			}
		}
	}
}
