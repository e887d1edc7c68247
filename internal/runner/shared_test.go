package runner_test

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/runner"
	"tm3270/internal/workloads"
)

// TestSharedSpecConcurrent: a spec and its artifact are immutable
// values. For every workload on configuration D, one spec and one
// artifact back sharedRuns concurrent runs, and each run's rendered
// outcome equals the workload's exec.golden record. Under -race this
// also proves that Init and Check keep no state between calls.
func TestSharedSpecConcurrent(t *testing.T) {
	const sharedRuns = 4
	golden, err := os.ReadFile(filepath.Join("testdata", "exec.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloads.Names() {
		want := goldenRecord(string(golden), name+" on D")
		if want == "" {
			t.Fatalf("exec.golden has no record for %s on D", name)
		}
		w, err := workloads.ByName(name, workloads.Small())
		if err != nil {
			t.Fatal(err)
		}
		art, err := runner.CompileWorkload(w, config.ConfigD())
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, sharedRuns)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = execRecord(t, art, w, false)
			}()
		}
		wg.Wait()
		for i, g := range got {
			// Observed pairs append a second record to the block.
			if g != want && !strings.HasPrefix(want, g+"observed ") {
				t.Errorf("%s run %d of %d on one shared spec differs from exec.golden:\n%s",
					name, i+1, sharedRuns, firstDiff(g, want))
			}
		}
	}
}

// goldenRecord returns the lines of exec.golden's "== key" block.
func goldenRecord(golden, key string) string {
	_, rest, ok := strings.Cut(golden, "== "+key+"\n")
	if !ok {
		return ""
	}
	block, _, _ := strings.Cut(rest, "== ")
	return block
}
