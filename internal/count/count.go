// Package count implements CountNFTA: a randomized approximation scheme
// for |L_n(T)|, the number of distinct labelled trees of size n accepted
// by a non-deterministic finite tree automaton. It follows the
// structure of the FPRAS of Arenas, Croquevielle, Jayaram and Riveros
// ("When is approximate counting for conjunctive queries tractable?",
// STOC 2021), the black box that Theorems 1 and 3 of the paper invoke:
//
//   - for every (state q, size n), the set T(q, n) of accepted trees
//     decomposes by root symbol (disjoint) and then into a union over
//     transitions, whose overlap is estimated by drawing near-uniform
//     samples and testing membership in earlier branches (tree
//     acceptance is polynomial-time);
//   - forests F((q₁,…,q_k), m) decompose as a *disjoint* union over the
//     size of the first tree of products T(q₁, j) × F((q₂,…,q_k), m−j),
//     so their cardinalities combine exactly with no extra sampling
//     error;
//   - samplers mirror the estimates: symbol and split choices are drawn
//     proportionally to estimated cardinalities, and transition overlap
//     is resolved by canonical-first rejection, which makes the draw
//     uniform over the union when the component samplers are uniform.
//
// Sample sizes default to a practical polynomial in 1/ε rather than the
// constants of the theoretical analysis (which the paper itself calls
// impractical, §6); accuracy is validated against exact counters in the
// test suite and experiment harness.
//
// The engine is built for throughput and splits into three layers:
//
//   - an immutable plan (plan.go) — the interned transition structure
//     and dense-table geometry — built once per automaton and cached on
//     it, shared by every trial and session;
//   - a per-trial run (this file) — seed, dense memo tables
//     (internal/dense), effort counters and prefix-sum weight rows
//     (prefix.go) — pooled on the plan so repeated estimation allocates
//     near zero in steady state;
//   - sampler sessions (sampler.go) with acceptance-set slabs and tree
//     arenas, bound to a run per chunk of sampling work.
//
// Trials and overlap-sample chunks share one work-stealing scheduler
// (internal/sched); every sample draws from its own sub-RNG derived
// from (trial seed, site, sample index) (internal/splitmix), so results
// are bit-identical for a fixed seed at every worker count. The
// string-side engine (internal/nfa) shares this architecture and these
// substrate packages.
package count

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pqe/internal/dense"
	"pqe/internal/efloat"
	"pqe/internal/nfta"
	"pqe/internal/obs"
	"pqe/internal/sched"
	"pqe/internal/trials"
)

// Options configures the estimator. The zero value gets sensible
// defaults.
type Options struct {
	// Epsilon is the target relative error of a single trial, in (0,1).
	// Default 0.1.
	Epsilon float64
	// Trials is the number of independent estimates whose median is
	// returned. Default 5.
	Trials int
	// Samples is the number of samples per overlap term; 0 derives
	// max(24, ⌈6/ε²⌉).
	Samples int
	// MaxRetry bounds canonical-rejection retries; 0 derives a default.
	MaxRetry int
	// Seed seeds the deterministic PRNG (ignored when Rng is set).
	Seed int64
	// Rng supplies randomness when non-nil.
	Rng *rand.Rand
	// Anytime enables sequential stopping: trials run in deterministic
	// batches (a pure function of (Epsilon, Delta, Trials), never of
	// wall-clock time or MaxProcs) and the call stops at the earliest
	// batch whose per-trial log₂ estimates all agree within the ε-band,
	// provided a conservative δ-derived floor of trials has run. Trials
	// is the hard cap — an anytime call never runs more trials than the
	// fixed schedule would, and when the certificate never fires it runs
	// exactly the fixed schedule. See internal/seqstop for the
	// statistics.
	Anytime bool
	// Delta is the anytime certificate's failure-probability target in
	// (0,1); ≤ 0 uses seqstop.DefaultDelta. Ignored unless Anytime.
	Delta float64
	// MinTrials overrides the δ-derived trial floor (clamped to
	// [1, Trials]). Ignored unless Anytime.
	MinTrials int
	// MaxProcs bounds the workers of the call's unified scheduler, which
	// dispatches whole trials and, within them, chunks of the
	// overlap-sampling loops (work-stealing, so a straggler trial never
	// leaves workers idle). 0 derives the count from the deprecated
	// Parallel/Workers pair; every setting returns bit-identical results
	// for a fixed seed.
	MaxProcs int
	// Parallel requests trial-level parallelism.
	//
	// Deprecated: set MaxProcs. Parallel maps to MaxProcs = Trials.
	Parallel bool
	// Workers requests intra-trial sampling parallelism.
	//
	// Deprecated: set MaxProcs. Workers > 1 maps to MaxProcs = Workers.
	Workers int
	// Stats, when non-nil, accumulates estimator effort counters across
	// all trials. Deprecated thin accessor: the same counters (and more)
	// flow into Obs's registry under countnfta_* names; new call sites
	// should read those.
	Stats *Stats
	// Obs, when non-nil, receives the unified telemetry of every call:
	// a count.trees span with per-trial child spans, countnfta_* registry
	// counters (memo hits/misses, interner sizes, acceptance checks,
	// plan-cache hits, scheduler steal/queue gauges), and per-trial
	// convergence records. A nil Scope disables all of it at the cost of
	// a pointer test.
	Obs *obs.Scope
	// Ctx, when non-nil, lets callers cancel a call mid-sampling:
	// cancellation is observed at every trial-batch boundary, before each
	// queued trial starts, and before each overlap-sampling dispatch, so
	// a cancelled call abandons its remaining work within one batch. The
	// value Trees returns after a cancellation is meaningless — callers
	// must check Ctx.Err() and discard it (internal/core does). A nil Ctx
	// (the default) never cancels and adds no per-sample cost.
	Ctx context.Context

	// procs is the resolved scheduler width, filled by withDefaults.
	procs int
}

// Stats reports how much work the estimator did.
type Stats struct {
	// TreeKeys and ForestKeys are memo-table sizes: distinct (state,
	// size) and (tuple, size) cells computed.
	TreeKeys, ForestKeys int
	// UnionSamples is the number of forests drawn for overlap
	// estimation.
	UnionSamples int
	// Rejections counts canonical-rejection retries during sampling.
	Rejections int
	// WallTime is the elapsed time of the Trees calls that recorded
	// into this Stats.
	WallTime time.Duration
	// Mallocs and AllocBytes are heap-allocation deltas over those
	// calls, read from runtime.MemStats. They are process-global, so
	// concurrent unrelated work inflates them; within the benchmark
	// harness they attribute cleanly.
	Mallocs    uint64
	AllocBytes uint64
}

func (o Options) withDefaults() Options {
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		o.Epsilon = 0.1
	}
	if o.Trials <= 0 {
		o.Trials = 5
	}
	if o.Samples <= 0 {
		o.Samples = int(math.Max(24, math.Ceil(6/(o.Epsilon*o.Epsilon))))
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	o.procs = sched.Resolve(o.MaxProcs, o.Workers, o.Parallel, o.Trials)
	if o.Rng == nil {
		seed := o.Seed
		if seed == 0 {
			seed = 1
		}
		o.Rng = rand.New(rand.NewSource(seed))
	}
	return o
}

// schedLabels are the pprof labels applied to scheduler workers.
var schedLabels = []string{"pqe_engine", "countnfta", "pqe_stage", "trial"}

// scheduleCounters are the trial driver's countnfta_trials_saved_total and
// countnfta_anytime_stops_total counters.
var scheduleCounters = trials.CountersFor("countnfta")

// Trees approximates |L_n(T)| for a λ-free NFTA, within relative error ε
// with high probability (median of independent trials).
func Trees(a *nfta.NFTA, n int, opts Options) efloat.E {
	opts = opts.withDefaults()
	var t0 time.Time
	var m0 runtime.MemStats
	if opts.Stats != nil {
		t0 = time.Now()
		runtime.ReadMemStats(&m0)
	}
	c := begin(a, n, opts, "count.trees")
	v, _ := c.driver.Median(&c.local)
	if opts.Stats != nil {
		for _, r := range c.runs {
			if r == nil {
				continue
			}
			opts.Stats.TreeKeys += r.trees.Keys()
			opts.Stats.ForestKeys += r.forests.Keys()
			opts.Stats.UnionSamples += r.unionSamples
		}
		rej, _ := c.call.totals()
		opts.Stats.Rejections += rej
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		opts.Stats.WallTime += time.Since(t0)
		opts.Stats.Mallocs += m1.Mallocs - m0.Mallocs
		opts.Stats.AllocBytes += m1.TotalAlloc - m0.TotalAlloc
	}
	c.end()
	return v
}

// treesCall is the engine side of one Trees or TreesRange call: the
// plan, the call's span and shared samplers, and the runs its trials
// used, around the trial driver that runs the schedule.
type treesCall struct {
	pl      *plan
	planHit bool
	sc      *obs.Scope
	span    *obs.Span
	start   time.Time
	call    *callState
	runs    []*run
	driver  trials.Driver
	local   trials.Local
}

// begin opens a counting call whose trial t computes |T(initial, n)| on
// a pooled run seeded by the driver.
func begin(a *nfta.NFTA, n int, opts Options, name string) *treesCall {
	if a.HasLambda() {
		panic("count: automaton has λ-transitions; run EliminateLambda first")
	}
	c := &treesCall{}
	c.pl, c.planHit = planFor(a)
	c.sc, c.span = opts.Obs.Span(name)
	if c.span != nil {
		c.span.SetAttr("n", n)
		c.span.SetAttr("states", a.NumStates())
		c.span.SetAttr("trials", opts.Trials)
		c.span.SetAttr("epsilon", opts.Epsilon)
		c.span.SetAttr("workers", opts.procs)
	}
	if c.sc.Registry() != nil {
		c.start = time.Now()
	}
	c.call = newCallState(c.pl, opts.procs)
	c.runs = make([]*run, opts.Trials)
	c.driver = trials.New(trials.Config{
		Engine:    "countnfta",
		Counters:  scheduleCounters,
		Trials:    opts.Trials,
		Epsilon:   opts.Epsilon,
		Anytime:   opts.Anytime,
		Delta:     opts.Delta,
		MinTrials: opts.MinTrials,
		Rng:       opts.Rng,
		Ctx:       opts.Ctx,
		Obs:       c.sc,
		Span:      c.span,
	})
	c.local = trials.Local{Procs: opts.procs, Labels: schedLabels, Trial: func(w *sched.Worker, t int, seed int64) (efloat.E, int) {
		r := c.pl.getRun(opts, seed)
		r.w, r.call = w, c.call
		r.ensurePfx(n)
		c.runs[t] = r
		return r.treeEst(a.Initial(), n), r.unionSamples
	}}
	return c
}

// end flushes the call's counters, closes its span and returns its runs
// and samplers to the plan's pools.
func (c *treesCall) end() {
	if reg := c.sc.Registry(); reg != nil {
		flushRegistry(reg, c.pl, c.runs, c.call, c.local.Stats, c.planHit, time.Since(c.start))
	}
	c.span.End()
	c.pl.release(c.runs, c.call)
}

// flushRegistry folds the per-call effort counters into the unified
// metrics registry, once per Trees call — never inside the sampling
// loops, which only bump plain per-run and per-sampler integers.
func flushRegistry(reg *obs.Registry, pl *plan, runs []*run, call *callState, st sched.Stats, planHit bool, wall time.Duration) {
	var trials, treeKeys, forestKeys, memoHits, unionSamples int
	for _, r := range runs {
		if r == nil {
			continue
		}
		trials++
		treeKeys += r.trees.Keys()
		forestKeys += r.forests.Keys()
		memoHits += r.memoHits
		unionSamples += r.unionSamples
	}
	rejections, acceptChecks := call.totals()
	for _, r := range runs {
		if r != nil && r.top != nil {
			acceptChecks += r.top.acceptChecks
		}
	}
	reg.Counter("countnfta_calls_total").Inc()
	reg.Counter("countnfta_trials_total").Add(int64(trials))
	reg.Counter("countnfta_tree_keys_total").Add(int64(treeKeys))
	reg.Counter("countnfta_forest_keys_total").Add(int64(forestKeys))
	reg.Counter("countnfta_memo_hits_total").Add(int64(memoHits))
	reg.Counter("countnfta_memo_misses_total").Add(int64(treeKeys + forestKeys))
	reg.Counter("countnfta_union_samples_total").Add(int64(unionSamples))
	reg.Counter("countnfta_rejections_total").Add(int64(rejections))
	reg.Counter("countnfta_accept_checks_total").Add(int64(acceptChecks))
	reg.Counter("countnfta_worker_spawns_total").Add(st.Spawns)
	reg.Counter("countnfta_worker_busy_ns_total").Add(st.BusyNs)
	reg.Counter("countnfta_wall_ns_total").Add(wall.Nanoseconds())
	if planHit {
		reg.Counter("countnfta_plan_cache_hits_total").Inc()
	} else {
		reg.Counter("countnfta_plan_cache_misses_total").Inc()
	}
	reg.Counter("countnfta_sched_batches_total").Add(st.Batches)
	reg.Counter("countnfta_sched_chunks_total").Add(st.Chunks)
	reg.Counter("countnfta_sched_steals_total").Add(st.Steals)
	reg.Gauge("countnfta_sched_queue_depth").Set(float64(st.MaxQueue))
	reg.Gauge("countnfta_interned_tuples").Set(float64(len(pl.tuples)))
	reg.Histogram("countnfta_call_seconds").Observe(wall.Seconds())
}

// SampleTree draws one near-uniform tree from L_n(T), or nil if the
// language is (estimated) empty.
func SampleTree(a *nfta.NFTA, n int, opts Options) *nfta.Tree {
	if a.HasLambda() {
		panic("count: automaton has λ-transitions; run EliminateLambda first")
	}
	opts = opts.withDefaults()
	pl, _ := planFor(a)
	call := newCallState(pl, opts.procs)
	var r *run
	var tree *nfta.Tree
	sched.Run(sched.Config{Procs: opts.procs, Trials: 1, Labels: schedLabels}, func(w *sched.Worker, _ int) {
		r = pl.getRun(opts, opts.Rng.Int63())
		r.w, r.call = w, call
		r.ensurePfx(n)
		if r.treeEst(a.Initial(), n).IsZero() {
			return
		}
		tree = r.topSampler().drawTree(a.Initial(), n)
	})
	pl.release([]*run{r}, call)
	return tree
}

// run is the thin mutable half of a trial: the seed, the dense memo
// tables and prefix rows keyed to the plan's geometry, and the effort
// counters. Estimation (treeEst / symbolUnion / forestEst) runs
// sequentially on the trial's scheduler worker and writes the tables;
// sampling runs on sampler sessions that only read them (see
// sampler.go). Runs are pooled on the plan and reset on reuse.
type run struct {
	pl       *plan
	seed     int64
	samples  int
	maxRetry int

	trees   dense.Table // rows: states
	unions  dense.Table // rows: multi-branch (state, symbol) slots
	forests dense.Table // rows: tuple IDs

	// Prefix-sum weight rows (prefix.go), flat arrays indexed
	// row·(maxN+1)+size.
	maxN      int
	entryPfx  []atomic.Pointer[prefixRow]
	branchPfx []atomic.Pointer[prefixRow]
	splitPfx  []atomic.Pointer[prefixRow]
	pfxMu     sync.Mutex
	pfx       pfxArena

	unionSamples int
	memoHits     int    // estimation-path memo-table hits (misses = keys)
	siteSeq      uint64 // sampling-site counter for sub-RNG derivation

	// ctx cancels overlap-sampling dispatches mid-trial; the trial's
	// tables then hold garbage, which is fine because the whole call's
	// result is discarded by the caller (see Options.Ctx).
	ctx context.Context

	w    *sched.Worker // scheduler worker driving this trial
	call *callState    // per-call shared worker samplers

	top *sampler // lazily created top-level sampling session
}

// reset prepares a pooled run for a new trial, keeping every grown
// buffer (memo rows, prefix arrays, arena chunks) at capacity.
func (r *run) reset() {
	r.trees.Reset()
	r.unions.Reset()
	r.forests.Reset()
	clear(r.entryPfx)
	clear(r.branchPfx)
	clear(r.splitPfx)
	r.pfx.reset()
	r.unionSamples, r.memoHits, r.siteSeq = 0, 0, 0
	r.ctx = nil
	r.w, r.call, r.top = nil, nil, nil
}

// treeEst returns the (memoized) estimate of |T(q, n)|.
func (r *run) treeEst(q, n int) efloat.E {
	if n <= 0 {
		return efloat.Zero
	}
	if v, ok := r.trees.Get(q, n); ok {
		r.memoHits++
		return v
	}
	// Guard against reentrancy: with n ≥ 1 the recursion strictly
	// decreases sizes (forests of n−1 < n), so plain memoization
	// suffices; pre-store zero to be safe against pathological input.
	r.trees.Put(q, n, efloat.Zero)
	total := efloat.Zero
	for i := range r.pl.states[q] {
		total = total.Add(r.symbolUnion(q, i, n))
	}
	r.trees.Put(q, n, total)
	return total
}

// treeLookup is the read-only view of treeEst for samplers.
func (r *run) treeLookup(q, n int) efloat.E {
	if n <= 0 {
		return efloat.Zero
	}
	v, _ := r.trees.Get(q, n)
	return v
}

// symbolUnion estimates (and memoizes) the number of trees of size n,
// root label states[q][ei].sym, accepted from q: the union over the
// entry's transitions of the sym-rooted trees with child forest in
// F(c, n−1). Memoization matters: the samplers consult these estimates
// at every recursion level, and re-estimating a union re-runs its
// sampling loop.
func (r *run) symbolUnion(q, ei, n int) efloat.E {
	en := &r.pl.states[q][ei]
	tuples := en.tuples
	if len(tuples) == 1 {
		return r.forestEst(tuples[0], n-1)
	}
	if v, ok := r.unions.Get(en.slot, n); ok {
		r.memoHits++
		return v
	}
	r.unions.Put(en.slot, n, efloat.Zero)
	total := efloat.Zero
	for j, tid := range tuples {
		cj := r.forestEst(tid, n-1)
		if cj.IsZero() {
			continue
		}
		if j == 0 {
			total = total.Add(cj)
			continue
		}
		fresh := r.countFresh(tuples, j, n)
		total = total.Add(cj.MulFloat(float64(fresh) / float64(r.samples)))
	}
	r.unions.Put(en.slot, n, total)
	return total
}

// unionLookup is the read-only view of symbolUnion for samplers.
func (r *run) unionLookup(en *symTrans, n int) efloat.E {
	if len(en.tuples) == 1 {
		return r.forestLookup(en.tuples[0], n-1)
	}
	v, _ := r.unions.Get(en.slot, n)
	return v
}

// countFresh runs the overlap-sampling loop for union branch j at size
// n: r.samples forest draws, counting those not covered by an earlier
// branch. The draws are independent given the (already computed) memo
// tables, so they fan out as chunks on the call's scheduler, executed
// by whichever workers are idle; per-sample sub-RNGs keep the count
// identical for every worker count and partition.
func (r *run) countFresh(tuples []int, j, n int) int {
	site := r.siteSeq
	r.siteSeq++
	if r.ctx != nil && r.ctx.Err() != nil {
		return 0 // cancelled: skip the dispatch, the call is discarded
	}
	r.unionSamples += r.samples
	call := r.call
	return r.w.Sum(r.samples, func(w *sched.Worker, lo, hi int) int {
		s := call.sampler(w.ID())
		s.bind(r)
		return s.countFresh(tuples, j, n, site, lo, hi)
	})
}

// forestEst returns the (memoized) estimate of |F(tuple, m)|, combining
// first-tree-size splits exactly (disjoint union of products).
func (r *run) forestEst(tid, m int) efloat.E {
	tuple := r.pl.tuples[tid]
	switch len(tuple) {
	case 0:
		if m == 0 {
			return efloat.One
		}
		return efloat.Zero
	case 1:
		return r.treeEst(tuple[0], m)
	}
	if v, ok := r.forests.Get(tid, m); ok {
		r.memoHits++
		return v
	}
	rest := r.pl.restID[tid]
	total := efloat.Zero
	for j := 1; j <= m-(len(tuple)-1); j++ {
		head := r.treeEst(tuple[0], j)
		if head.IsZero() {
			continue
		}
		total = total.Add(head.Mul(r.forestEst(rest, m-j)))
	}
	r.forests.Put(tid, m, total)
	return total
}

// forestLookup is the read-only view of forestEst for samplers.
func (r *run) forestLookup(tid, m int) efloat.E {
	tuple := r.pl.tuples[tid]
	switch len(tuple) {
	case 0:
		if m == 0 {
			return efloat.One
		}
		return efloat.Zero
	case 1:
		return r.treeLookup(tuple[0], m)
	}
	v, _ := r.forests.Get(tid, m)
	return v
}
