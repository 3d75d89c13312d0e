// Package bncg is a library for the Bilateral Network Creation Game of
// Corbo and Parkes, reproducing "The Impact of Cooperation in Bilateral
// Network Creation" (Friedrich, Gawendowicz, Lenzner, Zahn; PODC 2023).
//
// Agents are nodes of an undirected graph; an edge exists only if both
// endpoints pay the edge price α for it. Each agent minimizes
// α·(edges bought) + Σ_v dist(u, v). The package re-exports the layers
// below under one API; the `bncg` command (cmd/bncg) is their command-line
// face. EXPERIMENTS.md holds the recorded results and file formats, and
// CHANGES.md the history of how the system got here.
//
// # Quick start
//
//	gm, _ := bncg.NewGame(6, bncg.Alpha2(3, 1)) // 6 agents, α = 3
//	star := bncg.Star(6)
//	res := bncg.Check(gm, star, bncg.PS)        // res.Stable == true
//	rho := gm.Rho(star)                          // 1.0: the social optimum
//
// Every long-running entry point (RunSweep, StreamSweep, WorstTree,
// WorstGraph, Experiment, RunDynamics, SampleDynamics, Simulate) takes a
// context.Context first. Cancellation is honored within one task (one
// graph class, one improving move, one trajectory), workers drain without
// leaking goroutines, and the partial result is returned with ctx.Err().
// A nil context means context.Background().
//
// # Graphs and the distance kernel (internal/graph)
//
// A Graph stores sorted neighbor lists, O(n+m) memory, and graphs on up
// to MaxBitsetNodes (512) nodes also keep a dense []uint64 bitset mirror
// of the adjacency, updated by every edge mutation. The mirror gives O(1)
// edge queries and the word-at-a-time BFS kernel BFSRows, which
// Graph.BFSScratchInto runs with caller-owned scratch and without
// allocating. Graph.BFS, and BFSInto and BFSScratchInto where the mirror
// does not apply, share one neighbor-list queue BFS.
//
// Enumeration is iterator-first. AllGraphs and AllFreeTrees yield
// (graph, canonical key) pairs. AllGraphClasses and AllFreeTreeClasses
// yield one representative per isomorphism class, the class member with
// the minimal edge mask, with its orbit size n!/|Aut|: non-minimal
// labelings are rejected by an early-aborting relabeling search rather
// than canonicalized and deduplicated.
//
// IncDist maintains all-pairs distances under single edge toggles, with
// per-source finite-distance sums and unreachable counts, so an agent's
// cost reads in O(1). An added edge repairs each row with a pruned BFS
// wave from the improved endpoint; a removed edge runs a Ramalingam–Reps
// repair (level-ordered affected-set discovery, then a bucket-queue
// unit-weight Dijkstra from the unaffected boundary). Both walk the sorted
// neighbor lists. A removal whose affected set outgrows a threshold falls
// back to one fresh BFS of that row, and IncDist.Stats counts repairs
// against fallbacks. IncDist.Probe and IncDist.Rollback open a probe on at
// most two rows and undo it by restoring the saved rows.
//
// # Games and equilibria (internal/game, internal/eq)
//
// A Game couples an agent count, an exact rational price Alpha and a
// GameVariant: consent mode (ConsentBilateral, ConsentUnilateral),
// distance aggregate (DistSum, DistMax) and per-agent price multipliers.
// The zero variant is the paper's game. ParseVariant and GameVariant.Key
// are one textual grammar ("unilateral", "max", "mul:U=P/Q",
// comma-joined), shared by every -variant flag and ?variant= parameter.
// Costs are exact and lexicographic in the paper's disconnection
// semantics, and every rational comparison goes through one 128-bit
// cross-product (internal/exact), so any price ParseAlpha accepts
// compares exactly.
//
// Each solution concept (RE, BAE, PS, BSwE, BGE, BNE, k-BSE, BSE) has one
// deviation scan, run toward one of two targets. Check targets the single
// price of the game and stops at the first deviation improving all its
// actors, the witness. Certify targets the whole α-axis: it intersects
// each deviation's actor improving sets as two unreduced breakpoints,
// drops the deviation once that intersection is empty or already inside
// the improving union, merges the survivors into the union, and returns
// the exact stable set as an AlphaSet, sorted disjoint rational intervals
// with exact Breakpoints. An Evaluator keeps its own flat bitset
// adjacency, where a candidate edge is two XORs, plus the scan buffers, so
// a check at sweep sizes allocates nothing; Evaluator.Evals counts the
// actor distance evaluations of its last scan. The unilateral NCG of the
// related work is the unilateral variant on the same engine
// (internal/ncg).
//
// # Sweeps and the store (internal/sweep, internal/store)
//
// RunSweep certifies every class of an enumeration once per concept on a
// worker pool and answers the whole α-grid from the certificates, so
// per-class work does not grow with grid density. Items are delivered in
// a deterministic α-major order, byte-identical at every worker count;
// StreamSweep and SweepOptions.OnItem stream them as they finish, and
// SweepResult.Critical lists the exact prices at which each concept's
// verdict flips (`bncg critical`). SweepCache memoizes certificates by
// canonical form, concept and variant, and per-α verdicts for /v1/check
// misses.
//
// OpenStore opens an append-only, sharded, CRC-framed store of those
// records. SweepCache.WarmStart replays it at startup, SweepCache.Persist
// makes it the cache's write-behind sink, torn tails left by a crash are
// truncated on open, and Compact drops superseded frames. The store also
// holds the resumable checkpoint of `bncg sweep -store -resume`.
// Non-default variants persist as tagged frames; default-variant frames
// keep the original layout. StoreStats counts refused writes.
//
// # The serving daemon (internal/server)
//
// NewServer and `bncg serve` put the cache and store behind HTTP:
// /v1/sweep streams NDJSON with concurrent identical requests sharing one
// computation, /v1/poa and /v1/critical answer searches, /v1/check
// verdicts an uploaded graph from a cached certificate when it can,
// /v1/simulate streams a dynamics batch, and /healthz and /metrics report
// state. Admission control (per-client token buckets, a concurrency cap
// with a bounded queue) sheds load with 429/503 before work starts, and
// every failure shares the {"error", "status"} schema. `serve -readonly`
// is a read replica that re-warms from a store another process writes.
// cmd/loadgen drives the daemon for the HTTP benchmarks.
//
// # The fleet (internal/fleet)
//
// The pruned class stream is deterministic, so a position range is a unit
// of work (SweepOptions.ClassStart/ClassEnd). `bncg fleet` plans a grid
// into ranges in a flock-guarded lease table; each range has an owner, a
// heartbeat deadline and a fencing epoch, so a stolen lease's stale owner
// fails with ErrFleetLeaseLost. `bncg worker` (RunFleetWorker) claims,
// certifies into its own store shard, flushes, then completes. `bncg
// store merge` folds the shards into one store, and `bncg store dump`
// renders a store deterministically, so a merged fleet store diffs
// byte-for-byte against a single-process sweep.
//
// # Observability (internal/obs)
//
// Tracer writes deterministic NDJSON spans for the sweep, store and fleet
// stages (`-trace`), and `bncg trace` (ReadTraceFiles, AnalyzeTrace)
// breaks a run down by stage, slowest class (each concept's certify time
// with its scan's evals) and worker lane. A
// hand-rolled Prometheus registry backs both the daemon's /metrics and
// the ComputeMetrics sidecar (`-metrics-addr`, optional pprof) of sweep,
// worker and simulate runs: classes, certify latency, cache and store
// counters, lease state, trajectory outcomes and IncDist repairs and
// fallbacks. LintExposition checks every exposition in tests. A nil
// Tracer or ComputeMetrics is a valid disabled one.
//
// # Dynamics and simulation (internal/dynamics, internal/sim)
//
// RunDynamics applies improving moves (PS or BGE move sets) until no
// candidate improves, the step bound, or cancellation. Candidates are
// probed through IncDist: probe the actors' rows, apply the move, read
// their costs from the row aggregates, roll back. A committed move
// repairs every row. Three schedulers pick the scan order: uniform,
// round-robin, and a breakpoint-guided one that commits the move whose
// improving α-interval has the widest margin around the current price.
// DynamicsOptions.FullRecompute keeps the evaluator-per-candidate path as
// the differential oracle and benchmark baseline.
//
// Simulate runs trajectories across an α grid from seeded random initial
// states (connected Erdős–Rényi graphs, uniform random trees, stars).
// Per-trajectory seeds derive from the base seed and grid coordinates, so
// the report is a pure function of the options at any worker count. Per-α
// summaries aggregate convergence steps, final topologies and ρ against
// the social optimum. `bncg simulate` and GET /v1/simulate are its faces.
//
// # Experiments
//
// Experiment runs one reproduction per table row and figure of the paper
// (internal/experiments) on top of the layers above, including the
// closed-form and exhaustive Price-of-Anarchy bounds (WorstTree,
// WorstGraph) and the lower-bound constructions of internal/construct.
// See the examples directory for runnable programs.
package bncg
