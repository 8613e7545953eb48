// Package stats provides the statistics machinery the optimizer and
// the tuning advisor rely on: block-level sampling with bias
// correction, equi-depth histograms for cardinality estimation, and
// the GEE distinct-value estimator used for columnstore size
// estimation (Section 4.4 of the paper, following Chaudhuri et al.).
package stats

import (
	"math"
	"math/rand"
	"sort"

	"hybriddb/internal/value"
)

// Sample is a block-level sample of a table.
type Sample struct {
	Rows []value.Row
	// Fraction is the effective sampling ratio (sampled rows / total).
	Fraction float64
	// TotalRows is the population size the sample was drawn from.
	TotalRows int64
}

// BlockSample draws a block-level sample: whole blocks of rows are
// selected at random until at least targetRows rows are collected.
// Block sampling is what a real system can afford on large tables —
// but it is biased when block contents correlate with position (e.g.
// a clustered index sorted on the sampled column). Callers that feed
// order-sensitive estimators should shuffle row order per block, which
// is the bias correction from Chaudhuri et al. the paper adopts; the
// rowShuffle flag applies it. Table.BlockSample draws the same sample
// by walking a table without materializing it; this slice form is the
// reference it is tested against.
func BlockSample(rows []value.Row, blockRows, targetRows int, rng *rand.Rand, rowShuffle bool) Sample {
	p := PickBlocks(len(rows), blockRows, targetRows, rng)
	out := make([]value.Row, 0, p.Cap())
	for _, b := range p.blocks {
		lo := b * p.blockRows
		hi := min(lo+p.blockRows, p.n)
		out = append(out, rows[lo:hi]...)
	}
	return p.Sample(out, rng, rowShuffle)
}

// BlockPicks is the block choice of one block sample over a population
// of n rows. Samplers that cannot index rows by position walk them in
// order and ask Keep about each one, so every sampler draws exactly
// the blocks BlockSample would from the same rng state.
type BlockPicks struct {
	n, blockRows int
	blocks       []int // picked block numbers, ascending
	cur          int   // index of the first block Keep has not passed
}

// PickBlocks draws the blocks a sample of at least targetRows rows
// takes from n rows in blocks of blockRows (128 when non-positive).
// It draws nothing from rng when n or targetRows is not positive.
func PickBlocks(n, blockRows, targetRows int, rng *rand.Rand) *BlockPicks {
	if blockRows <= 0 {
		blockRows = 128
	}
	p := &BlockPicks{n: n, blockRows: blockRows}
	if n == 0 || targetRows <= 0 {
		return p
	}
	nblocks := (n + blockRows - 1) / blockRows
	need := min((targetRows+blockRows-1)/blockRows, nblocks)
	p.blocks = rng.Perm(nblocks)[:need]
	sort.Ints(p.blocks)
	return p
}

// Cap returns an upper bound on the number of rows the picked blocks
// hold.
func (p *BlockPicks) Cap() int { return len(p.blocks) * p.blockRows }

// End returns the position just past the last picked row: a walk can
// stop there.
func (p *BlockPicks) End() int {
	if len(p.blocks) == 0 {
		return 0
	}
	return min((p.blocks[len(p.blocks)-1]+1)*p.blockRows, p.n)
}

// Keep reports whether the row at position pos lies in a picked block.
// Positions must be asked in ascending order.
func (p *BlockPicks) Keep(pos int) bool {
	for p.cur < len(p.blocks) && (p.blocks[p.cur]+1)*p.blockRows <= pos {
		p.cur++
	}
	return p.cur < len(p.blocks) && p.blocks[p.cur]*p.blockRows <= pos
}

// Sample wraps the rows of the picked blocks, in position order, into
// a Sample, shuffling them with rng when rowShuffle is set.
func (p *BlockPicks) Sample(rows []value.Row, rng *rand.Rand, rowShuffle bool) Sample {
	if len(p.blocks) == 0 {
		return Sample{Fraction: 0, TotalRows: int64(p.n)}
	}
	if rowShuffle {
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	}
	return Sample{Rows: rows, Fraction: float64(len(rows)) / float64(p.n), TotalRows: int64(p.n)}
}

// Histogram is an equi-depth histogram over one column.
type Histogram struct {
	// Bounds are bucket upper bounds (inclusive), ascending.
	Bounds []value.Value
	// Counts are estimated rows per bucket (scaled to the population).
	Counts []float64
	// Total is the estimated population row count.
	Total float64
	// Distinct is the estimated number of distinct values.
	Distinct float64
	// Min and Max bound the column's values.
	Min, Max value.Value
	// NullCount estimates NULLs in the population.
	NullCount float64
}

// BuildHistogram builds an equi-depth histogram with at most buckets
// buckets from a sample of column values, scaling counts by 1/fraction.
func BuildHistogram(vals []value.Value, buckets int, fraction float64) *Histogram {
	if buckets <= 0 {
		buckets = 64
	}
	if fraction <= 0 || fraction > 1 {
		fraction = 1
	}
	scale := 1 / fraction
	h := &Histogram{}
	nonNull := make([]value.Value, 0, len(vals))
	for _, v := range vals {
		if v.IsNull() {
			h.NullCount += scale
			continue
		}
		nonNull = append(nonNull, v)
	}
	h.Total = float64(len(vals)) * scale
	if len(nonNull) == 0 {
		return h
	}
	sort.Slice(nonNull, func(i, j int) bool { return value.Compare(nonNull[i], nonNull[j]) < 0 })
	h.Min, h.Max = nonNull[0], nonNull[len(nonNull)-1]

	distinct := 1
	for i := 1; i < len(nonNull); i++ {
		if value.Compare(nonNull[i], nonNull[i-1]) != 0 {
			distinct++
		}
	}
	h.Distinct = EstimateDistinctGEE(nonNull, fraction)

	per := (len(nonNull) + buckets - 1) / buckets
	if per == 0 {
		per = 1
	}
	for i := 0; i < len(nonNull); i += per {
		hi := i + per
		if hi > len(nonNull) {
			hi = len(nonNull)
		}
		// Extend the bucket to include duplicates of its upper bound so
		// bucket boundaries never split a value.
		for hi < len(nonNull) && value.Compare(nonNull[hi], nonNull[hi-1]) == 0 {
			hi++
		}
		h.Bounds = append(h.Bounds, nonNull[hi-1])
		h.Counts = append(h.Counts, float64(hi-i)*scale)
		i = hi - per // loop's i += per lands at hi
	}
	return h
}

// SelectivityRange estimates the fraction of rows in [lo, hi]
// (inclusive; a Null bound is open-ended).
func (h *Histogram) SelectivityRange(lo, hi value.Value) float64 {
	if h.Total == 0 || len(h.Bounds) == 0 {
		return 0
	}
	var rows float64
	prev := h.Min
	for i, ub := range h.Bounds {
		bucketLo, bucketHi := prev, ub
		prev = ub
		frac := overlapFraction(bucketLo, bucketHi, lo, hi)
		rows += h.Counts[i] * frac
	}
	sel := rows / h.Total
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

// SelectivityEq estimates the fraction of rows equal to v (uniform
// spread across distinct values).
func (h *Histogram) SelectivityEq(v value.Value) float64 {
	if h.Total == 0 || h.Distinct <= 0 {
		return 0
	}
	if !h.Min.IsNull() && (value.Compare(v, h.Min) < 0 || value.Compare(v, h.Max) > 0) {
		return 0
	}
	return 1 / h.Distinct
}

// overlapFraction estimates what fraction of a numeric bucket
// [bLo, bHi] falls within the query range [qLo, qHi].
func overlapFraction(bLo, bHi, qLo, qHi value.Value) float64 {
	// Entirely outside?
	if !qLo.IsNull() && value.Compare(bHi, qLo) < 0 {
		return 0
	}
	if !qHi.IsNull() && value.Compare(bLo, qHi) > 0 {
		return 0
	}
	// Entirely inside?
	loIn := qLo.IsNull() || value.Compare(bLo, qLo) >= 0
	hiIn := qHi.IsNull() || value.Compare(bHi, qHi) <= 0
	if loIn && hiIn {
		return 1
	}
	// Partial overlap: interpolate numerically when possible.
	if bLo.Kind().Numeric() && bHi.Kind().Numeric() {
		lo, hi := bLo.Float(), bHi.Float()
		if hi <= lo {
			return 1
		}
		clo, chi := lo, hi
		if !qLo.IsNull() && qLo.Float() > clo {
			clo = qLo.Float()
		}
		if !qHi.IsNull() && qHi.Float() < chi {
			chi = qHi.Float()
		}
		if chi < clo {
			return 0
		}
		return (chi - clo) / (hi - lo)
	}
	return 0.5 // non-numeric partial overlap: coarse guess
}

// EstimateDistinctGEE implements the GEE (Guaranteed-Error Estimator)
// of Charikar et al. as adapted by Chaudhuri et al. and used by the
// paper's columnstore size estimation: D ≈ sqrt(1/q) * f1 + Σ_{j≥2} fj,
// where q is the sampling fraction and fj the number of values
// appearing exactly j times in the sample. Values must be non-null.
func EstimateDistinctGEE(vals []value.Value, fraction float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	if fraction <= 0 || fraction > 1 {
		fraction = 1
	}
	freq := make(map[string]int, len(vals))
	var buf []byte
	for _, v := range vals {
		buf = value.EncodeKey(buf[:0], v)
		freq[string(buf)]++
	}
	var f1, rest float64
	for _, c := range freq {
		if c == 1 {
			f1++
		} else {
			rest++
		}
	}
	d := math.Sqrt(1/fraction)*f1 + rest
	if d < 1 {
		d = 1
	}
	return d
}

// EstimateDistinctRows applies GEE to multi-column combinations: the
// distinct count of the tuple formed by the given ordinals.
func EstimateDistinctRows(rows []value.Row, ordinals []int, fraction float64) float64 {
	if len(rows) == 0 {
		return 0
	}
	if fraction <= 0 || fraction > 1 {
		fraction = 1
	}
	freq := make(map[string]int, len(rows))
	var buf []byte
	for _, r := range rows {
		buf = buf[:0]
		for _, o := range ordinals {
			buf = value.EncodeKey(buf, r[o])
		}
		freq[string(buf)]++
	}
	var f1, rest float64
	for _, c := range freq {
		if c == 1 {
			f1++
		} else {
			rest++
		}
	}
	d := math.Sqrt(1/fraction)*f1 + rest
	if d < 1 {
		d = 1
	}
	return d
}
