package experiments

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var updateFigureTables = flag.Bool("update-figtables", false, "rewrite testdata/figures_all.txt from this run")

const figureTablesFile = "testdata/figures_all.txt"

// TestFigureTablesGolden renders every experiment (paperfigs -fig all) at n
// = 10k over four contrasting apps, on one worker and on four, and compares
// both outputs byte for byte with a recorded rendering: whatever order the
// pool runs a figure's configs in, and however a figure batches them, the
// tables must not move.
func TestFigureTablesGolden(t *testing.T) {
	want, err := os.ReadFile(figureTablesFile)
	if err != nil && !*updateFigureTables {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		r := NewRunner(Options{
			Apps:         []string{"505.mcf", "511.povray", "557.xz_1", "502.gcc_1"},
			Instructions: 10_000,
			Out:          &buf,
			Workers:      workers,
		})
		err := RunAll(r)
		r.Close()
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if *updateFigureTables {
			if err := os.WriteFile(figureTablesFile, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("workers %d: the rendered tables differ from %s:\n%s", workers, figureTablesFile, buf.String())
		}
	}
}
