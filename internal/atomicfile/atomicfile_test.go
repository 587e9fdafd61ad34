package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteReplacesAndLeavesNoTemp: Write creates missing parents, replaces
// an existing file whole, and leaves no temp file behind on success or on
// failure.
func TestWriteReplacesAndLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "sub", "entry.json")
	for _, content := range []string{"first\n", "second, longer\n"} {
		if err := Write(dst, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(dst); err != nil || string(got) != content {
			t.Fatalf("read %q, %v; want %q", got, err, content)
		}
	}
	// A directory in the way fails the rename; the temp file must go.
	blocked := filepath.Join(dir, "sub", "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Write(blocked, []byte("data")); err == nil {
		t.Fatal("rename over a non-empty directory should fail")
	}
	entries, err := os.ReadDir(filepath.Join(dir, "sub"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("directory holds %d entries, want entry.json and blocked only", len(entries))
	}
}
