package exp

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// renderString renders a study result to a string for byte comparison.
func renderString(r Renderable) string {
	var sb strings.Builder
	r.Render(&sb)
	return sb.String()
}

// The determinism claim: a study's rendered output is a pure function
// of its inputs, independent of the sweep runner's worker count. The
// open-loop and fleet studies are the two with serial calibration
// prologues and the largest grids, so they exercise the runner hardest.
func TestStudyWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep comparison is slow")
	}
	studies := []struct {
		name string
		run  func(Params) Renderable
	}{
		{"open-loop", func(p Params) Renderable { return OpenLoopStudy(p, 4, 0.25) }},
		{"fleet", func(p Params) Renderable { return FleetStudy(p, 5, []int{2}, 0.25) }},
	}
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, s := range studies {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			var want string
			for _, workers := range counts {
				p := QuickParams()
				p.Workers = workers
				got := renderString(s.run(p))
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("workers=%d rendered different bytes than workers=%d:\n%s\n--- vs ---\n%s",
						workers, counts[0], got, want)
				}
			}
		})
	}
}

// The runner must execute every cell exactly once and slot results in
// grid order regardless of completion order.
func TestRunCellsSlotsResultsInGridOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var runs atomic.Int64
		cells := make([]Cell, 23)
		for i := range cells {
			cells[i] = func() []Row {
				runs.Add(1)
				return []Row{{i}}
			}
		}
		p := QuickParams()
		p.Workers = workers
		out := renderString(gridTable(p, "recording", []string{"i"}, cells))
		if got := runs.Load(); got != 23 {
			t.Fatalf("workers=%d ran %d cells, want 23", workers, got)
		}
		// Rows must appear in ascending grid order.
		last := -1
		for _, line := range strings.Split(out, "\n") {
			var i int
			if _, err := fmt.Sscan(line, &i); err != nil {
				continue
			}
			if i != last+1 {
				t.Fatalf("workers=%d rows out of grid order: %d after %d\n%s", workers, i, last, out)
			}
			last = i
		}
		if last != 22 {
			t.Fatalf("workers=%d rendered rows 0..%d, want 0..22", workers, last)
		}
	}
}

// A panicking cell must surface on the caller's goroutine, not crash a
// worker.
func TestRunCellsPropagatesCellPanic(t *testing.T) {
	cells := make([]Cell, 8)
	for i := range cells {
		cells[i] = func() []Row {
			if i == 3 {
				panic("cell 3 exploded")
			}
			return []Row{{i}}
		}
	}
	p := QuickParams()
	p.Workers = 4
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cell panic did not propagate")
		}
		if msg, ok := r.(string); !ok || msg != "cell 3 exploded" {
			t.Fatalf("propagated %v, want the cell's panic value", r)
		}
	}()
	runCells(p, cells)
}
