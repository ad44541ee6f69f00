package exp

import (
	"runtime"
	"sync"
	"sync/atomic"

	"hybrimoe/internal/report"
)

// Row is one rendered table row: the cell values AddRow receives, in
// column order.
type Row []interface{}

// Cell is one independently runnable point of a grid study, returning
// its rendered rows in order. It must be hermetic — it builds its own
// engines and touches no mutable state shared with sibling cells
// (read-only request slices are fine) — so runCells may execute cells
// concurrently in any order. Rows are slotted by the cell's grid
// position, which makes the study's output a pure function of its
// inputs regardless of worker count.
type Cell func() []Row

// DefaultWorkers is the cell-level parallelism used when Params.Workers
// is unset: one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// runCells executes cells on a bounded worker pool of p.workers()
// goroutines (serially when that is 1 or there is only one cell) and
// returns their rows indexed like cells. Results are identical for
// every worker count: cells are hermetic and their rows land in grid
// order, not completion order. A panicking cell stops the sweep and
// re-panics on the caller's goroutine.
func runCells(p Params, cells []Cell) [][]Row {
	results := make([][]Row, len(cells))
	workers := min(p.workers(), len(cells))
	if workers <= 1 {
		for i, c := range cells {
			results[i] = c()
		}
		return results
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked interface{}
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				results[i] = cells[i]()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return results
}

// gridTable runs cells and assembles the standard study rendering: one
// table, the cells' rows appended in grid order.
func gridTable(p Params, title string, cols []string, cells []Cell) *report.Table {
	t := report.NewTable(title, cols...)
	for _, rows := range runCells(p, cells) {
		for _, r := range rows {
			t.AddRow(r...)
		}
	}
	return t
}
