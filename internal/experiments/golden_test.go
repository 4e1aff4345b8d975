package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the golden tables instead of comparing against
// them: go test ./internal/experiments -run TestGoldenTables -update
var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenSeeds are the Options.Seed values each golden file covers.
var goldenSeeds = []int64{0, 7}

// renderGolden renders one driver's Quick tables at every golden seed,
// each preceded by a seed header line.
func renderGolden(name string) ([]byte, error) {
	var buf bytes.Buffer
	for _, seed := range goldenSeeds {
		o := Quick()
		o.Seed = seed
		tb, err := Run(name, o)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		fmt.Fprintf(&buf, "# seed %d\n", seed)
		tb.Format(&buf)
	}
	return buf.Bytes(), nil
}

// TestGoldenTables pins every registered driver's Quick-scale tables
// byte for byte in testdata/golden/<name>.txt. Every other equivalence
// check in this package is relative (serial vs parallel, remote vs
// local); these files catch a change that shifts every path at once.
// Iterating the registry means a new driver cannot go unpinned.
func TestGoldenTables(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			got, err := renderGolden(name)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from %s:\n%s", name, path, lineDiff(string(want), string(got)))
			}
		})
	}
}

// lineDiff lists the lines that differ between want and got, by line
// number — enough to locate a drifted cell without a diff dependency.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var a, b string
		if i < len(w) {
			a = w[i]
		}
		if i < len(g) {
			b = g[i]
		}
		if a != b {
			fmt.Fprintf(&sb, "line %d:\n  want %q\n  got  %q\n", i+1, a, b)
		}
	}
	return sb.String()
}

// TestResultsDefaultCoversRegistry: the committed Defaults-scale output
// at the repository root (`make results`) carries a table for every
// registered driver.
func TestResultsDefaultCoversRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "results_default.txt"))
	if err != nil {
		t.Fatal(err)
	}
	text := "\n" + string(raw)
	for _, name := range Names() {
		if !strings.Contains(text, "\n== "+name+": ") {
			t.Errorf("results_default.txt has no %q table; regenerate it with `make results`", name)
		}
	}
}
