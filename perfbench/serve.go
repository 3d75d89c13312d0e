package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
)

const (
	// hitShare is the share of /v1/check requests a certificate answers.
	hitShare = 0.75
	// closedBatch is the fixed unit of work of the closed-loop phase: one
	// batch per daemon lifetime.
	closedBatch = 2000
	// warmupRequests run untimed at the start of every daemon lifetime.
	warmupRequests = 200
	// openRate is the open-loop phase's fixed arrival rate (requests/s),
	// set once to about half the median closed-loop rate (6.8k req/s)
	// measured over ten seeds on the 2-vCPU host where the benchmark was
	// defined.
	openRate = 3500
	// historySeed and historyMisses fix the verdict history written into
	// the fixture, independent of the workload seed.
	historySeed   = 20230702
	historyMisses = 400
	// missN and missP are the G(n, p) parameters of miss requests.
	missN = 8
	missP = 0.35
)

// connectedClasses enumerates one graph per isomorphism class of connected
// graphs, as `bncg critical` does.
var connectedClasses = graph.EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}

// checkReq is one generated /v1/check request.
type checkReq struct {
	hit     bool
	g       *graph.Graph
	concept eq.Concept
	alpha   game.Alpha
	path    string // path and query
	body    []byte
	wire    []byte // the whole HTTP/1.1 request
}

// exchange is a request with the reply it got.
type exchange struct {
	req    *checkReq
	status int
	body   []byte
	err    error
}

// streamGen draws the serve-check request stream from a seed: hits are a
// uniformly random connected n = 6 class, randomly relabelled, with one of
// the seven certified concepts; misses are a random connected G(8, 0.35).
// Both get α = p/q with p ≤ 40 and q ≤ 7.
type streamGen struct {
	rng     *rand.Rand
	classes []*graph.Graph
	hits    float64
}

func newStreamGen(seed int64, hits float64) *streamGen {
	var classes []*graph.Graph
	for g := range graph.AllClasses(6, connectedClasses) {
		classes = append(classes, g)
	}
	return &streamGen{rng: rand.New(rand.NewSource(seed)), classes: classes, hits: hits}
}

func (s *streamGen) next() (*checkReq, error) {
	r := &checkReq{hit: s.rng.Float64() < s.hits}
	if r.hit {
		g, err := s.classes[s.rng.Intn(len(s.classes))].Permute(s.rng.Perm(6))
		if err != nil {
			return nil, err
		}
		r.g = g
	} else {
		g, err := graph.RandomConnectedGNP(missN, missP, s.rng)
		if err != nil {
			return nil, err
		}
		r.g = g
	}
	r.concept = sevenConcepts[s.rng.Intn(len(sevenConcepts))]
	r.alpha = game.AFrac(1+s.rng.Int63n(40), 1+s.rng.Int63n(7))
	r.path = "/v1/check?alpha=" + r.alpha.String() + "&concept=" + r.concept.String()
	r.body = []byte(graph.Encode(r.g))
	r.wire = fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: bncg\r\nContent-Type: text/plain\r\nContent-Length: %d\r\n\r\n%s",
		r.path, len(r.body), r.body)
	return r, nil
}

func (s *streamGen) batch(n int) ([]*checkReq, error) {
	out := make([]*checkReq, n)
	for i := range out {
		r, err := s.next()
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// checkVerdict is the slice of the /v1/check reply the benchmark checks.
type checkVerdict struct {
	Results []struct {
		Concept   string `json:"concept"`
		Stable    bool   `json:"stable"`
		FromCache bool   `json:"from_cache"`
	} `json:"results"`
}

// verify checks a reply off the clock. A hit must come from a certificate
// and agree with the point check eq.Check; a miss was answered by a point
// check and must agree with the certificate eq.Certify, so the two scans
// cross-check each other.
func verify(x *exchange) error {
	if x.err != nil {
		return x.err
	}
	if x.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", x.status, bytes.TrimSpace(x.body))
	}
	var v checkVerdict
	if err := json.Unmarshal(x.body, &v); err != nil {
		return err
	}
	r := x.req
	if len(v.Results) != 1 || v.Results[0].Concept != r.concept.String() {
		return fmt.Errorf("reply %s, want one %s verdict", x.body, r.concept)
	}
	gm, err := game.NewGame(r.g.N(), r.alpha)
	if err != nil {
		return err
	}
	var want bool
	if r.hit {
		if !v.Results[0].FromCache {
			return fmt.Errorf("hit %s %s α=%s not answered from a certificate", r.g, r.concept, r.alpha)
		}
		want = eq.Check(gm, r.g.Clone(), r.concept).Stable
	} else {
		want = eq.Certify(gm, r.g.Clone(), r.concept).Contains(r.alpha)
	}
	if v.Results[0].Stable != want {
		return fmt.Errorf("%s %s α=%s: stable=%v, want %v", r.g, r.concept, r.alpha, v.Results[0].Stable, want)
	}
	return nil
}

// verifyAll checks every exchange on nproc goroutines and records each in o.
func verifyAll(e *env, o *outcome, xs []*exchange) {
	errs := make([]error, len(xs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(xs); i = int(next.Add(1)) - 1 {
				errs[i] = verify(xs[i])
			}
		}()
	}
	wg.Wait()
	for i, x := range xs {
		o.note("POST "+x.req.path, errs[i])
	}
}

// conn is one keep-alive HTTP/1.1 connection of the load generator. It
// writes pre-encoded requests and reads replies by Content-Length, so the
// generator leaves most of the host's CPU to the daemon.
type conn struct {
	c net.Conn
	r *bufio.Reader
}

// dial opens n connections to addr.
func dial(addr string, n int) ([]*conn, error) {
	cs := make([]*conn, 0, n)
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, &conn{c: c, r: bufio.NewReader(c)})
	}
	return cs, nil
}

func closeAll(cs []*conn) {
	for _, c := range cs {
		c.c.Close()
	}
}

// do sends one request and records the reply.
func (c *conn) do(r *checkReq) *exchange {
	x := &exchange{req: r}
	if _, x.err = c.c.Write(r.wire); x.err == nil {
		x.status, x.body, x.err = readReply(c.r)
	}
	return x
}

// pipelineDepth is how many requests a closed-loop connection keeps
// outstanding. With one, every request waits out a loopback round trip and
// two thread wake-ups, so throughput measures the host's scheduler more
// than the daemon; a short pipeline keeps the daemon's workers busy.
const pipelineDepth = 8

// closedLoop sends reqs over the connections, each keeping at most
// pipelineDepth requests outstanding (HTTP/1.1 pipelining): a connection
// sends its next request only when a reply has made room. It returns the
// exchanges in request order and the wall time of the batch.
func closedLoop(cs []*conn, reqs []*checkReq) ([]*exchange, time.Duration) {
	xs := make([]*exchange, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			// The writer queues each index before sending it, so the
			// reader meets the replies in the order they come back.
			sent := make(chan int, pipelineDepth-1)
			go func() {
				defer close(sent)
				for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
					sent <- i
					if _, err := c.c.Write(reqs[i].wire); err != nil {
						return
					}
				}
			}()
			for i := range sent {
				x := &exchange{req: reqs[i]}
				x.status, x.body, x.err = readReply(c.r)
				xs[i] = x
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for i, x := range xs {
		if x == nil { // every connection failed before sending it
			xs[i] = &exchange{req: reqs[i], err: errors.New("not sent")}
		}
	}
	return xs, wall
}

// readReply reads one HTTP/1.1 response with a Content-Length body.
func readReply(r *bufio.Reader) (int, []byte, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !strings.HasPrefix(line, "HTTP/1.1 ") {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(line[9:12])
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length := -1
	for {
		h, err := r.ReadString('\n')
		if err != nil {
			return 0, nil, err
		}
		if h == "\r\n" {
			break
		}
		if k, v, ok := strings.Cut(h, ":"); ok && strings.EqualFold(k, "Content-Length") {
			if length, err = strconv.Atoi(strings.TrimSpace(v)); err != nil {
				return 0, nil, fmt.Errorf("bad header %q", h)
			}
		}
	}
	if length < 0 {
		return 0, nil, fmt.Errorf("status %d reply without Content-Length", status)
	}
	body := make([]byte, length)
	_, err = io.ReadFull(r, body)
	return status, body, err
}

// daemon is a running `bncg serve` process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	setup   time.Duration // CPU time from exec to the first /healthz 200, store replay included
	ready   time.Duration // wall time of the same
	drained chan struct{}
	rss     *rssWatch
}

// startDaemon execs `bncg serve` on a free loopback port and returns once
// /healthz answers 200.
func startDaemon(e *env, storeDir string) (*daemon, error) {
	cmd := exec.CommandContext(e.ctx, e.bncg, "serve", "-addr", "127.0.0.1:0", "-store", storeDir,
		"-workers", strconv.Itoa(e.nproc))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{}), rss: watchRSS(cmd.Process.Pid)}
	sc := bufio.NewScanner(stdout)
	for d.addr == "" && sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "bncg serve: listening on http://"); ok {
			d.addr = a
		}
	}
	go func() {
		defer close(d.drained)
		_, _ = io.Copy(io.Discard, stdout)
	}()
	if d.addr == "" {
		d.stop()
		return nil, fmt.Errorf("bncg serve exited before listening")
	}
	// The listener is bound before the address is printed, so the first
	// probe connects; retry only in case accept has not started yet.
	for i := 0; ; i++ {
		resp, err := http.Get("http://" + d.addr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
			err = fmt.Errorf("/healthz status %d", resp.StatusCode)
		}
		if i == 200 {
			d.stop()
			return nil, err
		}
		time.Sleep(time.Millisecond)
	}
	d.ready = time.Since(start)
	if d.setup, err = d.cpu(); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// cpu returns the CPU time the daemon's threads have run, summed from
// /proc/<pid>/task/*/schedstat (nanoseconds). The kernel leaves time the
// hypervisor stole from the guest out of it, so unlike wall time it does
// not move with the load of neighbouring machines.
func (d *daemon) cpu() (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited
		}
		ns, err := strconv.ParseInt(strings.Fields(string(b))[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %v", t, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// stop sends SIGTERM, waits for the daemon's graceful drain, and returns
// its peak RSS while it served.
func (d *daemon) stop() (float64, error) {
	d.rss.sample()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	<-d.drained
	err := d.cmd.Wait()
	return d.rss.stop(), err
}

// buildFixture writes the serve-check store through the program's own
// paths: `bncg critical -store` certifies n = 2..5 on all nine concepts and
// n = 6 on the seven cheap ones, then a daemon on the store answers a fixed
// batch of misses, whose verdicts it persists as history. setup_s then
// measures a real replay, and a change of store format rebuilds the
// fixture instead of breaking it.
func buildFixture(e *env, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	for n := 2; n <= 6; n++ {
		concepts := eq.Concepts()
		if n == 6 {
			concepts = sevenConcepts
		}
		if _, err := runProgram(e, "critical", "-n", strconv.Itoa(n), "-workers", strconv.Itoa(e.nproc),
			"-concepts", conceptList(concepts), "-store", dir); err != nil {
			return err
		}
	}
	d, err := startDaemon(e, dir)
	if err != nil {
		return err
	}
	reqs, err := newStreamGen(historySeed, 0).batch(historyMisses)
	var cs []*conn
	if err == nil {
		cs, err = dial(d.addr, e.nproc)
	}
	if err == nil {
		xs, _ := closedLoop(cs, reqs)
		closeAll(cs)
		for _, x := range xs {
			if err == nil && (x.err != nil || x.status != http.StatusOK) {
				err = fmt.Errorf("fixture: history request %s failed: %v (status %d)", x.req.path, x.err, x.status)
			}
		}
	}
	if _, serr := d.stop(); err == nil && serr != nil {
		err = fmt.Errorf("fixture daemon: %w", serr)
	}
	return err
}

// copyDir copies the regular files of a store directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// serveE2E runs serve-check. For two thirds of the measured time it
// repeats one daemon lifetime: copy the fixture, exec `bncg serve` on it
// (setup_s), send an untimed warm-up and then one closed-loop batch of
// closedBatch requests over nproc connections (wall_s), and stop it
// (max_rss_mb). Each metric is the median over lifetimes, so a slow
// daemon start or an unlucky collection cycle moves one sample, not the
// run. The last third is an open-loop phase at openRate against one more
// lifetime. Every reply is verified after the daemons have stopped.
func serveE2E(e *env) (*outcome, error) {
	fixture := filepath.Join(e.work, "fixture")
	if err := buildFixture(e, fixture); err != nil {
		return nil, err
	}
	gen := newStreamGen(e.seed, hitShare)
	var all []*exchange
	var setups, readies, walls, cpus, rss []float64
	closed := 2 * e.seconds / 3
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < closed {
		warm, err := gen.batch(warmupRequests)
		if err != nil {
			return nil, err
		}
		reqs, err := gen.batch(closedBatch)
		if err != nil {
			return nil, err
		}
		var warmXs, xs []*exchange
		var wall, cpu time.Duration
		l, err := lifetime(e, fixture, len(walls), func(d *daemon, cs []*conn) error {
			warmXs, _ = closedLoop(cs, warm)
			cpu0, err := d.cpu()
			if err != nil {
				return err
			}
			xs, wall = closedLoop(cs, reqs)
			cpu1, err := d.cpu()
			cpu = cpu1 - cpu0
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, l.setup.Seconds())
		readies = append(readies, l.ready.Seconds())
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
		rss = append(rss, l.rssMB)
		all = append(all, warmXs...)
		all = append(all, xs...)
	}

	reqs, err := gen.batch(int(openRate * (e.seconds - closed).Seconds()))
	if err != nil {
		return nil, err
	}
	openXs := make([]*exchange, len(reqs))
	var open openLoopResult
	if _, err := lifetime(e, fixture, len(walls), func(_ *daemon, cs []*conn) error {
		open = openLoop(len(reqs), len(cs), time.Second/openRate, func(w, i int) bool {
			openXs[i] = cs[w].do(reqs[i])
			return openXs[i].err == nil && openXs[i].status == http.StatusOK
		})
		return nil
	}); err != nil {
		return nil, err
	}
	all = append(all, openXs...)
	o := newOutcome()
	verifyAll(e, o, all)

	wall := median(walls)
	lat := summarize(ms(open.latency))
	e.logf("%d daemon lifetimes, exec to the first /healthz 200:", len(setups))
	e.logf("  cpu_s %v", setups)
	e.logf("  wall_s %v", readies)
	e.logf("closed loop: one batch of %d requests per lifetime over %d connections, %d outstanding each", closedBatch, e.nproc, pipelineDepth)
	e.logf("  wall_s %v", walls)
	e.logf("  daemon cpu_s %v", cpus)
	e.logf("max_rss_mb per lifetime %v", rss)
	e.logf("setup_wall_s %.6f s lower (median; not gated)", median(readies))
	e.logf("wall_s %.6f s lower (median batch; not gated, see README)", wall)
	e.logf("check_rps %.1f req/s higher (median batch; not gated)", closedBatch/wall)
	e.logf("open loop at %d req/s: %s", openRate, lat)
	e.logf("check_p50_ms %.4f ms lower; check_p99_ms %.4f ms lower (%d samples; not gated)", lat.p50, lat.p99, lat.samples)
	e.logf("generator lateness: %s", summarize(ms(open.late)))
	o.metrics["cpu_s"] = median(cpus)
	o.metrics["setup_s"] = median(setups)
	o.metrics["max_rss_mb"] = median(rss)
	return o, nil
}

// lifetimeResult is what one daemon lifetime measured.
type lifetimeResult struct {
	setup, ready time.Duration
	rssMB        float64
}

// lifetime copies the fixture to a private store, starts a daemon on it,
// runs load over nproc connections, and stops the daemon.
func lifetime(e *env, fixture string, k int, load func(*daemon, []*conn) error) (lifetimeResult, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("life%d", k))
	if err := copyDir(fixture, dir); err != nil {
		return lifetimeResult{}, err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(e, dir)
	if err != nil {
		return lifetimeResult{}, err
	}
	cs, err := dial(d.addr, e.nproc)
	if err == nil {
		err = load(d, cs)
		closeAll(cs)
	}
	rss, serr := d.stop()
	if err == nil && serr != nil {
		err = fmt.Errorf("bncg serve: %w", serr)
	}
	return lifetimeResult{setup: d.setup, ready: d.ready, rssMB: rss}, err
}
