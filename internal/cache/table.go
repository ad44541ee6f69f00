package cache

import (
	"fmt"

	"hybrimoe/internal/moe"
)

// Per-expert state lives in dense per-layer tables: rows[l][e] holds
// expert (l, e)'s entry. Rows grow on write, so neither the cache nor a
// policy needs the model shape up front, and a missing entry reads as
// the zero value.

// checkID rejects expert IDs that cannot index a table. A negative
// Layer or Index is a caller bug; panicking here names the ID instead
// of failing later with a bare index-out-of-range.
func checkID(id moe.ExpertID) {
	if id.Layer < 0 || id.Index < 0 {
		panic(fmt.Sprintf("cache: invalid expert ID %v (layer %d, index %d): both must be non-negative",
			id, id.Layer, id.Index))
	}
}

// at reads id's entry, or the zero value when the table has none.
func at[T any](rows [][]T, id moe.ExpertID) T {
	if uint(id.Layer) < uint(len(rows)) {
		if row := rows[id.Layer]; uint(id.Index) < uint(len(row)) {
			return row[id.Index]
		}
	}
	var zero T
	return zero
}

// cell returns a pointer to id's entry, growing the table to reach it.
func cell[T any](rows *[][]T, id moe.ExpertID) *T {
	checkID(id)
	return &row(rows, id.Layer, id.Index+1)[id.Index]
}

// row returns layer's row with at least n entries, growing the table.
func row[T any](rows *[][]T, layer, n int) []T {
	for len(*rows) <= layer {
		*rows = append(*rows, nil)
	}
	r := (*rows)[layer]
	if len(r) < n {
		r = append(r, make([]T, n-len(r))...)
		(*rows)[layer] = r
	}
	return r
}
