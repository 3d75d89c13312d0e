package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/eq"
)

// setupProbes is how many times a batch workload starts the program on its
// smallest input before each measured invocation and after the last one;
// setup_s is the median CPU time of all of them. Spreading the probes over
// the run keeps one passing state of the host from setting the whole
// median.
const setupProbes = 5

// procRun is one finished program process.
type procRun struct {
	out   []byte
	wall  time.Duration // exec to exit
	cpu   time.Duration // user plus system time of the process
	rssMB float64       // peak resident set of the process
}

// runProgram runs bncg with args to completion in its own process.
func runProgram(e *env, args ...string) (procRun, error) {
	cmd := exec.CommandContext(e.ctx, e.bncg, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return procRun{}, err
	}
	rss := watchRSS(cmd.Process.Pid)
	err := cmd.Wait()
	wall := time.Since(start)
	peak := rss.stop()
	if err != nil {
		return procRun{}, fmt.Errorf("bncg %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	ps := cmd.ProcessState
	return procRun{out: stdout.Bytes(), wall: wall, cpu: ps.UserTime() + ps.SystemTime(), rssMB: peak}, nil
}

// rssPoll is how often a running program's peak RSS is read.
const rssPoll = 10 * time.Millisecond

// rssWatch tracks the peak resident set of a running process by polling
// VmHWM in /proc/<pid>/status, the high-water mark of the process's own
// address space. The exit status's getrusage ru_maxrss cannot serve: Linux
// seeds it at exec with the high-water mark of the address space exec
// replaced, which for a child spawned by this process is this process's.
// A peak reached in the last poll interval before exit is missed.
type rssWatch struct {
	pid    int
	peakKB atomic.Int64
	done   chan struct{}
	exited chan struct{}
}

func watchRSS(pid int) *rssWatch {
	w := &rssWatch{pid: pid, done: make(chan struct{}), exited: make(chan struct{})}
	w.sample()
	go func() {
		defer close(w.exited)
		t := time.NewTicker(rssPoll)
		defer t.Stop()
		for {
			select {
			case <-w.done:
				return
			case <-t.C:
				w.sample()
			}
		}
	}()
	return w
}

func (w *rssWatch) sample() {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", w.pid))
	if err != nil {
		return // exited, or not yet readable
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			for err == nil {
				old := w.peakKB.Load()
				if kb <= old || w.peakKB.CompareAndSwap(old, kb) {
					break
				}
			}
			return
		}
	}
}

// stop ends the polling and returns the peak in MB.
func (w *rssWatch) stop() float64 {
	close(w.done)
	<-w.exited
	return float64(w.peakKB.Load()) / 1024
}

// batch is a workload whose unit of work is one program invocation.
type batch struct {
	args      func(rep int) []string // the measured invocation, repetition rep
	setupArgs []string               // the same subcommand on the smallest input
	check     func(rep int, out []byte) error
}

// measure repeats the measured invocation until e.seconds have passed (at
// least once), with setupProbes launches of setupArgs before each and
// after the last, and reports the medians. Every invocation's output is
// checked.
func (b batch) measure(e *env) (*outcome, error) {
	var setups, setupWalls []float64
	probe := func() error {
		for i := 0; i < setupProbes; i++ {
			r, err := runProgram(e, b.setupArgs...)
			if err != nil {
				return err
			}
			setups = append(setups, r.cpu.Seconds())
			setupWalls = append(setupWalls, r.wall.Seconds())
		}
		return nil
	}
	o := newOutcome()
	var walls, cpus, rss []float64
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < e.seconds; rep++ {
		if err := probe(); err != nil {
			return nil, err
		}
		args := b.args(rep)
		r, err := runProgram(e, args...)
		if err == nil {
			err = b.check(rep, r.out)
			walls = append(walls, r.wall.Seconds())
			cpus = append(cpus, r.cpu.Seconds())
			rss = append(rss, r.rssMB)
		}
		o.note("bncg "+strings.Join(args, " "), err)
		if e.ctx.Err() != nil {
			return nil, e.ctx.Err()
		}
	}
	if err := probe(); err != nil {
		return nil, err
	}
	e.logf("bncg %s: %d runs", strings.Join(b.args(0), " "), len(walls))
	e.logf("  wall_s %v", walls)
	e.logf("  cpu_s %v", cpus)
	e.logf("  max_rss_mb %v", rss)
	e.logf("setup (%s): %d launches", strings.Join(b.setupArgs, " "), len(setups))
	e.logf("  cpu_s %v", setups)
	e.logf("  wall_s %v", setupWalls)
	e.logf("wall_s %.6f s lower (median; not gated, see README)", median(walls))
	e.logf("setup_wall_s %.6f s lower (median; not gated)", median(setupWalls))
	o.metrics["cpu_s"] = median(cpus)
	o.metrics["setup_s"] = median(setups)
	o.metrics["max_rss_mb"] = median(rss)
	return o, nil
}

// sevenConcepts are the concepts whose certificates are cheap at n = 6 and
// n = 7: everything but the large-coalition scans 3-BSE and BSE.
var sevenConcepts = []eq.Concept{eq.RE, eq.BAE, eq.PS, eq.BSwE, eq.BGE, eq.BNE, eq.TwoBSE}

func conceptList(cs []eq.Concept) string {
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.String()
	}
	return strings.Join(names, ",")
}

// critical is a `bncg critical` workload over every connected class of n
// nodes. Its report is deterministic, so a fixed digest pins it.
type critical struct {
	n        int
	concepts []eq.Concept
	classes  int
	digest   string // sha256 of the whole report
}

var (
	sweepN6 = critical{n: 6, concepts: eq.Concepts(), classes: 112,
		digest: "d45284516ae589ad06c911a2bae6d511498b7f2b69cc70335be2fa77a084a03a"}
	sweepN7 = critical{n: 7, concepts: sevenConcepts, classes: 853,
		digest: "b8d063fcc13e593f8fbb293a882443c17f1c993d5dbe6fb4c74451921c0c227a"}
)

func (c critical) args(n, workers int) []string {
	return []string{"critical", "-n", strconv.Itoa(n), "-workers", strconv.Itoa(workers), "-concepts", conceptList(c.concepts)}
}

func (c critical) e2e(e *env) (*outcome, error) {
	return batch{
		args:      func(int) []string { return c.args(c.n, e.nproc) },
		setupArgs: c.args(2, e.nproc),
		check:     func(_ int, out []byte) error { return c.check(out) },
	}.measure(e)
}

var criticalHeader = regexp.MustCompile(`^critical n=(\d+) source=graphs: (\d+) classes`)

// check verifies the class count, one breakpoint line and one
// stable-classes line per concept (classes × concepts certificates), and
// the digest of the whole report.
func (c critical) check(out []byte) error {
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	m := criticalHeader.FindStringSubmatch(lines[0])
	if m == nil || m[1] != strconv.Itoa(c.n) || m[2] != strconv.Itoa(c.classes) {
		return fmt.Errorf("report header %q, want n=%d with %d classes", lines[0], c.n, c.classes)
	}
	if bp, st := strings.Count(string(out), " breakpoints:"), strings.Count(string(out), " stable classes:"); bp != len(c.concepts) || st != len(c.concepts) {
		return fmt.Errorf("report covers %d/%d concepts, want %d", bp, st, len(c.concepts))
	}
	if d := digest(out); d != c.digest {
		return fmt.Errorf("report digest %s, want %s", d, c.digest)
	}
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// simulate is the `bncg simulate` workload. The step cap bounds the work of
// every trajectory, so the work per seed is nearly fixed.
type simulate struct {
	n, trajectories, maxSteps int
	alphas                    string
	defaultDigest             string // sha256 of the report at the program's default seed
}

var simulateN200 = simulate{n: 200, trajectories: 4, maxSteps: 1000, alphas: "2,10,100",
	defaultDigest: "0ea0fd8eb80b5d8d29a54ae44f698a542355ddae226893d7ebde9846b7d477cf"}

// defaultSimSeed is the seed `bncg simulate` uses when given none (and when
// given 0).
const defaultSimSeed = 1

func (s simulate) args(seed int64, workers int) []string {
	return []string{"simulate", "-n", strconv.Itoa(s.n), "-alphas", s.alphas,
		"-trajectories", strconv.Itoa(s.trajectories), "-max-steps", strconv.Itoa(s.maxSteps),
		"-workers", strconv.Itoa(workers), "-seed", strconv.FormatUint(uint64(seed), 10)}
}

// e2e runs repetition rep at program seed e.seed+rep: the cost of a batch
// depends on its seed, so successive repetitions cover several inputs and
// the median does not rest on one.
func (s simulate) e2e(e *env) (*outcome, error) {
	return batch{
		args: func(rep int) []string { return s.args(e.seed+int64(rep), e.nproc) },
		setupArgs: []string{"simulate", "-n", "4", "-alphas", "2", "-trajectories", "1", "-max-steps", "1",
			"-workers", strconv.Itoa(e.nproc)},
		check: func(rep int, out []byte) error { return s.check(e.seed+int64(rep), out) },
	}.measure(e)
}

var simAlphaLine = regexp.MustCompile(`^α=\S+\s+conv=(\d+)/(\d+) .*steps\{mean=\S+ p50=\d+ p95=\d+ max=(\d+)\}`)

// check verifies completion, one summary line per α with every trajectory
// accounted for, the step cap, and — at the default seed — the digest of
// the whole report.
func (s simulate) check(seed int64, out []byte) error {
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if strings.Contains(lines[0], "[interrupted") {
		return fmt.Errorf("batch interrupted: %q", lines[0])
	}
	want := fmt.Sprintf("simulate n=%d trajectories=%d/α seed=%d ", s.n, s.trajectories, max(seed, defaultSimSeed))
	if !strings.HasPrefix(lines[0], want) || !strings.Contains(lines[0], fmt.Sprintf(" max-steps=%d", s.maxSteps)) {
		return fmt.Errorf("report header %q, want prefix %q", lines[0], want)
	}
	alphas := strings.Split(s.alphas, ",")
	if len(lines) != 1+len(alphas) {
		return fmt.Errorf("report has %d α lines, want %d", len(lines)-1, len(alphas))
	}
	for _, l := range lines[1:] {
		m := simAlphaLine.FindStringSubmatch(l)
		if m == nil {
			return fmt.Errorf("unparsable α line %q", l)
		}
		conv, _ := strconv.Atoi(m[1])
		total, _ := strconv.Atoi(m[2])
		steps, _ := strconv.Atoi(m[3])
		if total != s.trajectories || conv > total || steps > s.maxSteps {
			return fmt.Errorf("α line %q breaks the item count or step cap", l)
		}
	}
	if seed <= defaultSimSeed {
		if d := digest(out); d != s.defaultDigest {
			return fmt.Errorf("report digest at the default seed %s, want %s", d, s.defaultDigest)
		}
	}
	return nil
}
