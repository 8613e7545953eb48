// Package exec runs physical plans. The primary spine is batch mode:
// operators pull SlotBatch units (typed vectors plus selection vector,
// or materialized row runs) through BatchCursor trees, with row mode
// demoted to thin fringes — B+ tree seeks, heap scans, merge and
// nested-loop joins, stream aggregation, bare TOP — adapted at the
// boundary (see batch.go). The legacy row spine (Cursor trees pulling
// composite rows) remains available via RunOptions.RowMode and for DML;
// both spines issue the identical virtual-clock charge multiset, so
// Metrics are bit-identical while the batch spine wins real CPU —
// mirroring SQL Server's batch-mode/row-mode split that drives the
// paper's CPU asymmetries.
package exec

import (
	"fmt"

	"hybriddb/internal/metrics"
	"hybriddb/internal/plan"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// Context carries per-query execution state.
type Context struct {
	Tr *vclock.Tracker
	// Grant is the query's working-memory grant in bytes; 0 = unlimited.
	// Sorts and hash aggregates spill when they would exceed it.
	Grant int64
	// TotalSlots is the width of composite rows (sum of FROM schemas).
	TotalSlots int
	// DOP is the plan's degree of parallelism. It parameterizes the
	// virtual-clock simulation (ChargeParallelCPU divides by it) and is
	// deliberately independent of Workers below, so that varying the
	// real worker count never changes the reported virtual metrics.
	DOP int
	// Workers is the number of real goroutines morsel-driven operators
	// may use. <= 1 means serial execution. Parallel operators charge
	// the exact same virtual-clock work as their serial counterparts;
	// Workers only changes wall-clock time.
	Workers int
	// Trace, when non-nil, is the trace node Build attaches per-operator
	// children to (EXPLAIN ANALYZE). Nil tracing adds zero overhead to
	// the hot path.
	Trace *metrics.TraceNode
}

// overGrant reports whether allocating need more bytes would exceed
// the grant.
func (c *Context) overGrant(need int64) bool {
	return c.Grant > 0 && c.Tr.MemInUse()+need > c.Grant
}

// Cursor produces composite rows.
type Cursor interface {
	Next() (value.Row, bool)
}

// Result is a completed query execution.
type Result struct {
	Columns []string
	Rows    []value.Row
	Metrics vclock.Metrics
}

// RunOptions tune one plan execution.
type RunOptions struct {
	// Trace, when non-nil, receives the per-operator trace tree
	// (EXPLAIN ANALYZE).
	Trace *metrics.TraceNode
	// Workers is the real goroutine budget for morsel-driven parallel
	// operators; <= 1 executes the plan serially.
	Workers int
	// RowMode selects the legacy row-at-a-time spine instead of the
	// batch spine. Results and Metrics are bit-identical either way;
	// only real CPU time differs.
	RowMode bool
}

// Execute runs a plan to completion. It is the single executor entry
// point; the batch spine is the default, with RunOptions selecting
// tracing, real parallelism, and the legacy row spine.
func Execute(tr *vclock.Tracker, root *plan.Root, totalSlots int, opts RunOptions) (*Result, error) {
	ctx := &Context{Tr: tr, Grant: root.MemGrant, TotalSlots: totalSlots,
		DOP: root.DOP, Workers: opts.Workers, Trace: opts.Trace}
	tr.SetDOP(root.DOP)
	res := &Result{Columns: root.Columns}
	if opts.RowMode {
		cur, err := Build(ctx, root.Input)
		if err != nil {
			return nil, err
		}
		for {
			row, ok := cur.Next()
			if !ok {
				break
			}
			res.Rows = append(res.Rows, row)
		}
	} else {
		cur, err := BuildBatch(ctx, root.Input)
		if err != nil {
			return nil, err
		}
		for {
			sb, ok := cur.NextBatch()
			if !ok {
				break
			}
			if sb.Rows != nil {
				res.Rows = append(res.Rows, sb.Rows...)
			} else {
				res.Rows = append(res.Rows, sb.materializeRows(totalSlots)...)
			}
		}
		if opts.Trace != nil && len(opts.Trace.Children) > 0 {
			opts.Trace.Children[0].SetAttr("batch_operators", countBatchOperators(root.Input))
		}
	}
	tr.RowsOut = int64(len(res.Rows))
	res.Metrics = tr.Snapshot()
	return res, nil
}

// Build constructs the cursor tree for a plan node. With tracing
// enabled it also mirrors the plan as a metrics.TraceNode tree: every
// operator is wrapped in a cursor that counts emitted rows and
// accumulates the byte-read and simulated-time deltas of its subtree
// (construction included, so blocking operators that drain their
// input up front — hash builds, sorts, aggregates — attribute that
// work correctly).
func Build(ctx *Context, n plan.Node) (Cursor, error) {
	if root, ok := n.(*plan.Root); ok {
		return Build(ctx, root.Input)
	}
	if ctx.Trace == nil {
		return buildNode(ctx, n)
	}
	parent := ctx.Trace
	tn := parent.Child(n.Describe())
	tn.Loops = 1
	ctx.Trace = tn
	b0, t0 := ctx.Tr.BytesRead, ctx.Tr.ExecTime()
	cur, err := buildNode(ctx, n)
	tn.BytesRead += ctx.Tr.BytesRead - b0
	tn.Time += ctx.Tr.ExecTime() - t0
	ctx.Trace = parent
	if err != nil {
		return nil, err
	}
	return &traceCursor{ctx: ctx, tn: tn, in: cur}, nil
}

// buildNode constructs the cursor for one plan node (children recurse
// through Build so they pick up tracing).
func buildNode(ctx *Context, n plan.Node) (Cursor, error) {
	switch node := n.(type) {
	case *plan.Scan:
		return buildScan(ctx, node)
	case *plan.Filter:
		in, err := Build(ctx, node.Input)
		if err != nil {
			return nil, err
		}
		return newFilterCursor(ctx, in, node.Conds), nil
	case *plan.Join:
		return buildJoin(ctx, node)
	case *plan.Agg:
		return buildAgg(ctx, node)
	case *plan.Project:
		in, err := Build(ctx, node.Input)
		if err != nil {
			return nil, err
		}
		return &projectCursor{ctx: ctx, in: in, exprs: node.Exprs}, nil
	case *plan.Sort:
		if rows, ok, err := morselSortRows(ctx, node, 0); err != nil {
			return nil, err
		} else if ok {
			return &sortCursor{rows: rows}, nil
		}
		in, err := Build(ctx, node.Input)
		if err != nil {
			return nil, err
		}
		return newSortCursor(ctx, in, node.Keys)
	case *plan.Top:
		if s, ok := node.Input.(*plan.Sort); ok && parallelSortEligible(ctx, s) {
			rows, tn, err := fusedTopSortRows(ctx, node, s)
			if err != nil {
				return nil, err
			}
			var in Cursor = &sortCursor{rows: rows}
			if tn != nil {
				in = &traceCursor{ctx: ctx, tn: tn, in: in}
			}
			return &topCursor{in: in, n: node.N}, nil
		}
		in, err := Build(ctx, node.Input)
		if err != nil {
			return nil, err
		}
		return &topCursor{in: in, n: node.N}, nil
	case *plan.Root:
		return Build(ctx, node.Input)
	}
	return nil, fmt.Errorf("exec: unsupported plan node %T", n)
}
