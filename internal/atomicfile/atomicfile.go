// Package atomicfile is the repository's one way to replace a file on disk
// so that no reader ever sees it half written: the run cache's entries, the
// trace store's payloads and manifests, and the jobs' checkpoints all go
// through Write.
package atomicfile

import (
	"os"
	"path/filepath"
)

// Write writes data to dst through a temp file named ".<base>.tmp*" in
// dst's directory (created as needed), then renames it over dst, so dst
// holds either its old content or all of data. Directory listings of the
// stores skip the temp names. There is no fsync: a crash can still lose
// the write, never tear it.
func Write(dst string, data []byte) error {
	dir := filepath.Dir(dst)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(dst)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), dst)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
