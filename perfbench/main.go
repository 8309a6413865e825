// Command perfbench is the repository benchmark: it runs one workload
// against the real program — the egi library in-process for batch
// detection, a freshly built egiserve over loopback HTTP for serving —
// checks every output for correctness, and prints its metrics. With
// -trace 1 it also replays the workload's exact inputs in-process through
// each layer's public functions, records a span around every call, and
// prints the per-layer ledger instead of the end-to-end metrics.
//
// Usage (from the repository root, after building with run.sh):
//
//	perfbench -egiserve PATH -workload NAME -seed N -seconds S -trace 0|1
//
// Every line but the last is human-readable: each metric with its unit
// and sample count. The last line is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's outcome: its metrics (with the sample count
// behind each, printed but not part of the JSON), the operations it
// attempted and those that failed, and every failed check.
type report struct {
	metrics   map[string]metric
	samples   map[string]int
	attempted int
	failed    int
	problems  []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

// set records a metric measured over n samples.
func (r *report) set(name string, value float64, unit string, n int) {
	r.metrics[name] = metric{Value: value, Unit: unit}
	r.samples[name] = n
}

// op counts one attempted operation and, when err is non-nil, its failure.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
}

// check counts one correctness check; a failed check is a failed
// operation.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		r.op(nil)
		return
	}
	r.op(fmt.Errorf("check failed: "+format, args...))
}

// print writes the human-readable lines, then the JSON result line. It
// fails if a declared metric is missing or carries another unit.
func (r *report) print(want []metricDef) error {
	for _, p := range r.problems {
		fmt.Println("FAIL", p)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("%-32s %14.6g %-6s (n=%d)\n", n, m.Value, m.Unit, r.samples[n])
	}
	for _, d := range want {
		if m, ok := r.metrics[d.name]; !ok || m.Unit != d.unit {
			return fmt.Errorf("internal error: metric %s not measured in %s (got %+v)", d.name, d.unit, m)
		}
	}
	out := map[string]any{
		"correct":   r.failed == 0,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   r.metrics,
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// bench is one benchmark invocation.
type bench struct {
	seed     int64
	seconds  float64
	trace    bool
	egiserve string // path of the freshly built server binary
	work     string // per-run scratch directory inside the checkout
	traceDir string // where traced runs write their spans
	rep      *report
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"batch_paper":   runBatch,
	"serve_fanout":  func(b *bench) error { return runServe(b, fanout) },
	"serve_durable": func(b *bench) error { return runServe(b, durable) },
}

// watchdog is how long a run may take before it is torn down as failed;
// it stays under the three minutes a run is allowed.
const watchdog = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == coldChildArg {
		os.Exit(coldChild(os.Args[2:]))
	}
	os.Exit(run())
}

func run() (code int) {
	var (
		workload = flag.String("workload", "", "workload: batch_paper, serve_fanout or serve_durable")
		seed     = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "measured seconds; sizes each phase's fixed work")
		trace    = flag.Int("trace", 0, "1 replays the inputs through each layer and prints the per-layer ledger")
		server   = flag.String("egiserve", "", "path of the egiserve binary under test")
		workDir  = flag.String("workdir", ".bench_build/runs", "scratch directory for per-run data and span files")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || *server == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -egiserve, -workload (batch_paper|serve_fanout|serve_durable), -seconds > 0 and -trace 0|1")
		return 2
	}
	if _, err := os.Stat(*server); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	// Every exit path — return, panic, signal, watchdog — tears down the
	// processes and directories this run created.
	teardown.install(watchdog)
	defer func() {
		if p := recover(); p != nil {
			teardown.run()
			fmt.Fprintf(os.Stderr, "perfbench: panic: %v\n", p)
			code = 2
		}
	}()
	defer teardown.run()

	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(*workDir, *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	teardown.dir(work)
	abs, err := filepath.Abs(*server)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	b := &bench{seed: *seed, seconds: *seconds, trace: *trace == 1, egiserve: abs, work: work,
		traceDir: filepath.Join(filepath.Dir(*workDir), "traces"), rep: newReport()}
	if err := fn(b); err != nil {
		// An error here is the benchmark unable to run at all, not a
		// failed operation: report no result.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	want := endToEndMetrics
	if b.trace {
		want = perLayerMetrics
	}
	if err := b.rep.print(want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}
