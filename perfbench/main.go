// Command perfbench is the repository's benchmark. One run measures one
// workload against the bncg built from the same checkout:
//
//	bash perfbench/run.sh --workload sweep-n7 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it runs the real program — `bncg critical`, `bncg
// simulate` or the `bncg serve` daemon on loopback — in its own process,
// checks every output, and reports the end-to-end metrics named in
// BENCHMARK.json. With --trace 1 it replays the workload in process,
// records spans around its own calls into each layer's public functions,
// and reports the per-layer metrics plus a reconciliation table. The last
// line of standard output is the JSON result; the lines before it are the
// human-readable report. README.md records why each workload exists and
// which end-to-end metric each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// deadline bounds a whole run, so that a hung program fails the run instead
// of overrunning the 180-second budget of one benchmark invocation.
const deadline = 170 * time.Second

// env is what every workload runner receives.
type env struct {
	ctx     context.Context
	bncg    string        // the program under test
	work    string        // private scratch directory of this run
	traces  string        // where traced runs leave their spans
	seed    int64         // workload seed: drives every generated input
	seconds time.Duration // how long the measured phase runs
	nproc   int           // worker count and connection count
	out     io.Writer     // human-readable report
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.out, format+"\n", args...) }

// outcome is what a workload runner measured. Metrics maps BENCHMARK.json
// metric names to values in the units BENCHMARK.json gives them.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// note counts one checked operation, failed when err is non-nil. The
// first few failures are printed; the rest are only counted.
func (o *outcome) note(what string, err error) {
	o.attempted++
	if err != nil {
		if o.failed++; o.failed <= 10 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		}
	}
}

type workload struct {
	e2e    func(*env) (*outcome, error)
	traced func(*env) (*outcome, error)
}

var workloads = map[string]workload{
	"sweep-n6":      {e2e: sweepN6.e2e, traced: sweepN6.traced},
	"sweep-n7":      {e2e: sweepN7.e2e, traced: sweepN7.traced},
	"serve-check":   {e2e: serveE2E, traced: serveTraced},
	"simulate-n200": {e2e: simulateN200.e2e, traced: simTraced},
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: traced in-process replay with per-layer metrics")
	bncg := flag.String("bncg", "", "bncg binary under test")
	out := flag.String("out", ".bench_build", "directory for scratch files and traces")
	flag.Parse()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok || !spec.hasWorkload(*name) {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *bncg == "" {
		return fmt.Errorf("--bncg is required")
	}
	if *seed < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seed must be non-negative, --seconds positive and --trace 0 or 1")
	}
	bin, err := filepath.Abs(*bncg)
	if err != nil {
		return err
	}
	dir := filepath.Join(*out, "work", fmt.Sprintf("%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	e := &env{
		ctx:     ctx,
		bncg:    bin,
		work:    dir,
		traces:  filepath.Join(*out, "traces"),
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		nproc:   runtime.NumCPU(),
		out:     os.Stdout,
	}
	e.logf("workload %s seed=%d seconds=%d trace=%d nproc=%d", *name, *seed, *seconds, *trace, e.nproc)

	steal0, total0 := cpuTicks()
	runner, metrics := w.e2e, spec.EndToEnd
	if *trace == 1 {
		runner, metrics = w.traced, spec.PerLayer
	}
	o, err := runner(e)
	if err != nil {
		return err
	}
	res, err := o.result(metrics, *trace == 0)
	if err != nil {
		return err
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		e.logf("host steal: %.1f%% of this run's CPU time went to other guests", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	e.logf("error_share %.6f fraction lower (%d failed of %d attempted)", errorShare(o.failed, o.attempted), o.failed, o.attempted)
	for _, m := range metrics {
		e.logf("%-34s %14.6g %-8s %s", m.Name, res.Metrics[m.Name].Value, m.Unit, m.Better)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// result renders o against the metric list of BENCHMARK.json. A measured
// name the list does not hold is a bug in the benchmark. End-to-end
// metrics must all be measured; a per-layer metric of a layer the workload
// never calls reads 0.
func (o *outcome) result(specs []metricSpec, endToEnd bool) (*result, error) {
	known := map[string]bool{}
	res := &result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range specs {
		known[m.Name] = true
		v, ok := o.metrics[m.Name]
		if !ok && endToEnd {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	var unknown []string
	for name := range o.metrics {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics missing from BENCHMARK.json: %v", unknown)
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

// cpuTicks reads the host-wide steal and total CPU ticks from /proc/stat;
// both are 0 where the file is unreadable.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// Fields 8 and 9 (guest time) are already counted in user time.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
