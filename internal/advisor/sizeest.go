// Package advisor implements the Database Engine Tuning Advisor
// extension the paper contributes (Section 4): per-query candidate
// selection over B+ tree and columnstore indexes, what-if costing
// through the optimizer against hypothetical index metadata, index
// merging, and a greedy workload-level search under a storage budget —
// plus the two columnstore size estimators of Section 4.4 (black-box
// sample compression and GEE-based run modelling).
package advisor

import (
	"math"
	"math/rand"

	"hybriddb/internal/colstore"
	"hybriddb/internal/stats"
	"hybriddb/internal/storage"
	"hybriddb/internal/table"
	"hybriddb/internal/value"
)

// SizeMethod selects the columnstore size estimator.
type SizeMethod int

// Size estimation methods (Section 4.4).
const (
	// SizeBlackBox builds a columnstore on a block sample and scales
	// each column's compressed size by the inverse sampling fraction.
	SizeBlackBox SizeMethod = iota
	// SizeGEE models run-length encoding directly: columns are ordered
	// by GEE-estimated distinct count (mimicking the engine's greedy
	// sort) and each column's runs are bounded by the distinct count of
	// the sort-prefix combination ending at it.
	SizeGEE
)

func (m SizeMethod) String() string {
	if m == SizeBlackBox {
		return "black-box"
	}
	return "gee"
}

// SampleTarget is the default block-sample size for size estimation.
const SampleTarget = 8000

// EstimateCSISize estimates the per-column and total compressed size of
// a hypothetical columnstore over all of t's columns (plus the hidden
// UID), without building it on the full data.
func EstimateCSISize(t *table.Table, method SizeMethod, seed int64) (total int64, perCol []int64) {
	n := t.RowCount()
	ncols := t.Schema.Len()
	perCol = make([]int64, ncols)
	if n == 0 {
		return 0, perCol
	}
	rng := rand.New(rand.NewSource(seed))
	// Block-level sampling with row shuffle to correct clustering bias
	// (Section 4.4 / Chaudhuri et al.).
	sample := t.BlockSample(128, SampleTarget, rng, true)
	if len(sample.Rows) == 0 {
		return 0, perCol
	}
	scale := float64(n) / float64(len(sample.Rows))

	switch method {
	case SizeBlackBox:
		// Compress the sample for real and scale linearly.
		st := storage.NewStore(0)
		idx := colstore.Build(st, colstore.Config{
			Schema:       t.Schema,
			Primary:      true,
			RowGroupSize: len(sample.Rows),
		}, sample.Rows, nil)
		for c := 0; c < ncols; c++ {
			perCol[c] = int64(float64(idx.ColumnBytes(c)) * scale)
		}
	default:
		perCol = geeSizeEstimate(t, sample, n)
	}
	for _, b := range perCol {
		total += b
	}
	// Hidden UID column: unique values, effectively incompressible.
	total += n * 8
	return total, perCol
}

// geeSizeEstimate models the engine's greedy sort + RLE/bit-pack
// choice using GEE distinct estimates.
func geeSizeEstimate(t *table.Table, sample stats.Sample, totalRows int64) []int64 {
	ncols := t.Schema.Len()
	frac := sample.Fraction
	n := float64(totalRows)

	// Estimate per-column distincts with GEE.
	distinct := make([]float64, ncols)
	for c := 0; c < ncols; c++ {
		vals := make([]value.Value, len(sample.Rows))
		for i, r := range sample.Rows {
			vals[i] = r[c]
		}
		distinct[c] = stats.EstimateDistinctGEE(vals, frac)
		if distinct[c] > n {
			distinct[c] = n
		}
	}
	// Greedy sort order: fewest distinct first (mirrors the engine's
	// strategy, Section 4.4: "picks the next column to sort by based on
	// the column with the fewest runs", approximated by distincts).
	order := make([]int, ncols)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < ncols; i++ {
		for j := i; j > 0 && distinct[order[j]] < distinct[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	perCol := make([]int64, ncols)
	prefix := []int{}
	for _, c := range order {
		prefix = append(prefix, c)
		// Runs of column c after sorting by the prefix ending at c are
		// bounded by the distinct count of the prefix combination.
		runs := stats.EstimateDistinctRows(sample.Rows, prefix, frac)
		if runs > n {
			runs = n
		}
		rleBytes := runs * 10
		bits := math.Ceil(math.Log2(distinct[c] + 1))
		if bits < 1 {
			bits = 1
		}
		packedBytes := n * bits / 8
		best := math.Min(rleBytes, packedBytes)
		if t.Schema.Columns[c].Kind == value.KindString {
			// Dictionary: distinct strings at an estimated average width.
			best += distinct[c] * avgStringWidth(sample.Rows, c)
		}
		perCol[c] = int64(best) + 64
	}
	return perCol
}

func avgStringWidth(rows []value.Row, c int) float64 {
	var total, n float64
	for _, r := range rows {
		if !r[c].IsNull() && r[c].Kind() == value.KindString {
			total += float64(len(r[c].Str()))
			n++
		}
	}
	if n == 0 {
		return 8
	}
	return total/n + 4
}

// EstimateBTreeSize estimates a secondary B+ tree's size.
func EstimateBTreeSize(t *table.Table, keys, include []int) int64 {
	width := 24 + 8 // entry overhead + uid tiebreak
	for _, k := range keys {
		width += colWidth(t, k)
	}
	for _, k := range include {
		width += colWidth(t, k)
	}
	width += 8 * len(t.ClusterKeys) // carried cluster key
	return int64(float64(t.RowCount()*int64(width)) / 0.9)
}

func colWidth(t *table.Table, c int) int {
	if w := t.Schema.Columns[c].Kind.FixedWidth(); w > 0 {
		return w
	}
	return 16
}
