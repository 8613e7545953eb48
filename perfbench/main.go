// Command perfbench is hybriddb's end-to-end benchmark: the CH workload
// (TPC-C transactions beside TPC-H-style queries) on one hybrid
// physical design, clustered B+ tree primaries plus nonclustered
// columnstores on orderline, oorder and stock. See README.md for the
// workloads and metrics.
//
//	bash perfbench/run.sh --workload ch_oltp --seed 21 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 replays the workload with spans around
// each layer's public entry points and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome.
type report struct {
	tally
	metrics map[string]metric // the result line's metrics
	info    map[string]metric // printed by name only
	notes   []string          // human-readable lines printed before the result
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) setInfo(name string, v float64, unit string) {
	if r.info == nil {
		r.info = map[string]metric{}
	}
	r.info[name] = metric{Value: v, Unit: unit}
}

var workloads = map[string]func(options) (*report, error){
	"ch_olap": runOLAP,
	"ch_oltp": runOLTP,
	"ch_htap": runHTAP,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: ch_olap, ch_oltp or ch_htap")
	seed := fs.Int64("seed", DefaultSeed, "seed for the CH data and the transaction stream")
	seconds := fs.Int("seconds", 20, "measured seconds per phase")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload ch_olap|ch_oltp|ch_htap, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	env := stampEnv(*name, *seed, *seconds, *trace)
	line, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", line)
	if env.GOMAXPROCS > env.NProc {
		fmt.Fprintf(stderr, "perfbench: GOMAXPROCS=%d exceeds the %d schedulable CPUs; refusing to measure oversubscribed\n",
			env.GOMAXPROCS, env.NProc)
		return 2
	}

	rep, err := fn(options{workload: *name, seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stderr, "perfbench: FAILED %s\n", f)
	}
	rep.setInfo("ops_failed_frac", frac(float64(rep.failed), float64(rep.attempted)), "frac")
	lines := map[string]metric{}
	for _, ms := range []map[string]metric{rep.metrics, rep.info} {
		for n, m := range ms {
			lines[n] = m
		}
	}
	names := make([]string, 0, len(lines))
	for n := range lines {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", n, lines[n].Value, lines[n].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// tally counts operations attempted and failed: statements that
// errored, results that did not match the reference, and consistency
// invariants that did not hold.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 20 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, f := range o.failures {
		if len(t.failures) < 20 {
			t.failures = append(t.failures, f)
		}
	}
}
