package main

import (
	"fmt"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strings"
	"time"

	"pqe"
	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/obs"
	"pqe/internal/pdb"
	"pqe/internal/shard"
)

// libSpec describes one library workload: a closed loop of one caller
// over a rotating instance family, with the engine forced.
type libSpec struct {
	name     string
	strategy string // "force-nfta" or "force-nfa"
	engine   string // "nfta" or "nfa"
	maxProcs int    // MaxProcs of each estimate (shard workers run at 1)
	shards   int    // shard worker processes; 0 runs in-process
	side     int    // family member the exact and write classes use
	family   func(seed int64) []Instance
}

var libSpecs = map[string]libSpec{
	"tree_fpras": {"tree_fpras", "force-nfta", "nfta", 2, 0, 4, func(s int64) []Instance {
		return []Instance{snowflake(s, 3, "half", "F"), snowflake(s, 4, "half", "F"), snowflake(s, 2, "rational", "F"),
			snowflake(s, 5, "half", "F"), snowflake(s, 3, "rational", "F")}
	}},
	"path_fpras": {"path_fpras", "force-nfa", "nfa", 2, 0, 1, func(s int64) []Instance {
		return []Instance{path(s, 4, 6, 10, "half"), path(s, 4, 5, 8, "rational"), path(s, 3, 6, 10, "rational")}
	}},
	"shard_fpras": {"shard_fpras", "force-nfta", "nfta", 1, 2, 1, func(s int64) []Instance {
		return []Instance{snowflake(s, 3, "half", "F"), snowflake(s, 4, "half", "F"), snowflake(s, 5, "half", "F")}
	}},
}

const (
	epsilon    = 0.1
	setupRuns  = 9 // set-ups per run; setup_s is their median
	recheckOps = 3 // seeded ops re-run one-shot after the window
)

// libEnv is one set-up of a library workload: loaded instances, warm
// FPRAS sessions, the exact session of the side member over its own
// database copy, and for shard_fpras the worker processes and pool.
type libEnv struct {
	spec    libSpec
	insts   []Instance
	queries []*pqe.Query
	ests    []*pqe.Estimator // FPRAS sessions
	exact   *pqe.Estimator   // exact reads and writes of insts[spec.side]
	workers []*child
	addrs   []string // workers' shard addresses
	debug   []string // workers' -debug-addr
	pool    *pqe.ShardPool
}

func (e *libEnv) close() {
	if e.pool != nil {
		e.pool.Close()
	}
	for _, w := range e.workers {
		w.stop()
	}
}

func (e *libEnv) opts(seed int64) *pqe.Options {
	return &pqe.Options{Strategy: e.spec.strategy, MaxProcs: e.spec.maxProcs, Seed: seed, Epsilon: epsilon, Shards: e.pool}
}

var (
	shardAddrRE = regexp.MustCompile(`shard worker on (\S+)`)
	debugAddrRE = regexp.MustCompile(`debug server on http://(\S+)/`)
)

// setupLib loads the family, starts the processes a workload needs,
// and warms every session with one untimed op.
func setupLib(r *runner, spec libSpec, k int) (env *libEnv, err error) {
	env = &libEnv{spec: spec, insts: spec.family(r.seed)}
	defer func() {
		if err != nil {
			env.close()
			env = nil
		}
	}()
	for i := 0; i < spec.shards; i++ {
		c, addrs, err := startChild(r.bin("pqe"),
			[]string{"-shard-listen", "127.0.0.1:0", "-maxprocs", "1", "-debug-addr", "127.0.0.1:0"},
			filepath.Join(r.work, fmt.Sprintf("shard-%d-%d.log", k, i)),
			[]*regexp.Regexp{shardAddrRE, debugAddrRE}, 30*time.Second)
		if err != nil {
			return nil, err
		}
		env.workers = append(env.workers, c)
		env.addrs = append(env.addrs, addrs[0])
		env.debug = append(env.debug, addrs[1])
	}
	if spec.shards > 0 {
		if env.pool, err = pqe.NewShardPool(env.addrs...); err != nil {
			return nil, err
		}
	}
	for j, in := range env.insts {
		q, err := pqe.ParseQuery(in.Query)
		if err != nil {
			return nil, err
		}
		d, err := pqe.ParseDatabase(strings.NewReader(in.DB))
		if err != nil {
			return nil, err
		}
		env.queries = append(env.queries, q)
		env.ests = append(env.ests, pqe.NewEstimator(q, d, nil))
		if _, err := env.ests[j].Probability(env.opts(warmSeed(r.seed, j))); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", in.Name, err)
		}
	}
	d, err := pqe.ParseDatabase(strings.NewReader(env.insts[spec.side].DB))
	if err != nil {
		return nil, err
	}
	env.exact = pqe.NewEstimator(env.queries[spec.side], d, nil)
	if _, err := env.exact.Probability(&pqe.Options{Strategy: "force-obdd"}); err != nil {
		return nil, fmt.Errorf("warm-up exact %s: %w", env.insts[spec.side].Name, err)
	}
	return env, nil
}

func warmSeed(seed int64, j int) int64 { return opSeed(^seed, j) }

// libOp is one timed FPRAS estimate.
type libOp struct {
	inst  int
	seed  int64
	at    time.Duration // sent, from the window start
	value float64
	ms    float64
	err   error
}

// runLib runs a library workload: set-ups, the timed window (halved,
// with a traced half, when tracing), then the checks and metrics.
func runLib(r *runner, spec libSpec) error {
	var env *libEnv
	var setups, scaled []float64
	for k := 0; k < setupRuns; k++ {
		if env != nil {
			env.close()
			env = nil
		}
		t0 := time.Now()
		e, err := setupLib(r, spec, k)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		scaled = append(scaled, setups[k]*setupFactor())
		env = e
	}
	defer env.close()
	r.record["setup_runs_s"] = setups
	r.record["setup_runs_scaled_s"] = scaled
	// Peak RSS covers the timed window only: return the earlier
	// set-ups' memory, then restart every process's high-water mark.
	debug.FreeOSMemory()
	pids := []int{os.Getpid()}
	for _, w := range env.workers {
		pids = append(pids, w.cmd.Process.Pid)
	}
	for _, pid := range pids {
		if err := resetPeakRSS(pid); err != nil {
			return err
		}
	}

	window := r.window
	if r.trace {
		window /= 2 // the other half is the traced window
	}
	side := newSider(env)
	refs := newRefClock(window, nil)
	ops := closedLoop(window, side, refs, func(i int) libOp {
		j := i % len(env.insts)
		s := opSeed(r.seed, i)
		t0 := time.Now()
		res, err := env.ests[j].Probability(env.opts(s))
		return libOp{inst: j, seed: s, value: res.Probability, ms: msSince(t0), err: err}
	})
	rss := 0.0
	for _, pid := range pids {
		rss += vmHWM(pid)
	}

	var traced *tracedLib
	if r.trace {
		var err error
		if traced, err = runTracedLib(r, spec, env, window, side, newRefClock(window, nil), ops); err != nil {
			return err
		}
	}
	if side.err != nil {
		return side.err
	}
	// One more read shows that the writes cancelled.
	side.read(false, 0)
	if side.err != nil {
		return side.err
	}

	// Checks, all outside the timed windows.
	oracles := make([]oracle, len(env.insts))
	for j, in := range env.insts {
		q, _ := cq.Parse(in.Query)
		h, err := pdb.Parse(strings.NewReader(in.DB))
		if err != nil {
			return err
		}
		root := r.tr.Begin(0, "core.oracle", in.Name)
		oracles[j], err = exactOracle(r.tr, root, in.Name, q, h)
		r.tr.Finish(root)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", in.Name, err)
		}
	}
	for k, v := range side.vals {
		r.checks["exact_vs_oracle"]++
		if o := oracles[spec.side]; relErr(v, o.value) > 1e-12 {
			r.fail("exact read %d of %s = %.17g, oracle %.17g", k, env.insts[spec.side].Name, v, o.value)
		}
	}
	within := 0
	for _, op := range ops {
		if op.err == nil && relErr(op.value, oracles[op.inst].value) <= epsilon {
			within++
		}
	}
	recheckLib(r, env, ops)
	instanceRecord(r, spec, env.insts, oracles, ops)

	classes := map[string]*classStats{
		"fpras": newClass(r.limits("fpras"), refPar, window),
		"exact": newClass(r.limits("exact"), refSeq, window),
		"write": newClass(r.limits("write"), refSeq, window),
	}
	for _, op := range ops {
		classes["fpras"].add(op.at, op.ms, op.err)
	}
	for _, x := range side.exactLat {
		classes["exact"].add(x.at, x.ms, nil)
	}
	for _, x := range side.writeLat {
		classes["write"].add(x.at, x.ms, nil)
	}
	r.e2e("setup_s", median(scaled))
	r.e2e("peak_rss_mb", rss)
	r.e2e("est_per_s", classes["fpras"].perSecond(refs))
	r.e2e("within_eps_frac", ratio(float64(within), float64(len(ops))))
	r.finishClasses(classes, refs)
	if traced != nil {
		traced.report(r, spec, ops)
	}
	return nil
}

// closedLoop calls op for i = 0, 1, … until window has passed. After
// each op, outside its timing, it times one run of refSeq (and after
// every other op one of refPar) and then one exact read and one write
// of side.
func closedLoop(window time.Duration, side *sider, refs *refClock, op func(i int) libOp) []libOp {
	var ops []libOp
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		at := time.Since(start)
		o := op(i)
		o.at = at
		ops = append(ops, o)
		if i%2 == 0 {
			refs.run(refPar, time.Since(start))
		}
		refs.run(refSeq, time.Since(start))
		side.read(true, time.Since(start))
		side.write(time.Since(start))
	}
	return ops
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// sider runs the exact and write classes of a library workload on one
// family member (spec.side), interleaved with the FPRAS ops so that
// they sample the whole window: exact reads with the OBDD route forced,
// and self-cancelling reweights (p → p′ → p) through
// Estimator.ApplyDelta on the same session. Reweights keep the fact
// order, on which the OBDD's variable order and so the exact reads'
// cost depend.
type sider struct {
	tr       *Tracer // nil outside the traced window
	est      *pqe.Estimator
	name     string
	facts    []wfact
	writes   int
	exactLat []sample  // timed exact reads
	writeLat []sample  // timed writes
	vals     []float64 // every exact value read
	err      error
}

func newSider(env *libEnv) *sider {
	in := env.insts[env.spec.side]
	return &sider{est: env.exact, name: in.Name, facts: parseFacts(in.DB)}
}

// sample is one timed op of a class: when it was sent, from the window
// start, and its latency.
type sample struct {
	at time.Duration
	ms float64
}

func (s *sider) read(timed bool, at time.Duration) {
	if s.err != nil {
		return
	}
	root := s.tr.Begin(0, "core.exact", s.name)
	t0 := time.Now()
	res, err := s.est.Probability(&pqe.Options{Strategy: "force-obdd"})
	ms := msSince(t0)
	s.tr.Finish(root)
	if err != nil {
		s.err = fmt.Errorf("exact read %s: %w", s.name, err)
		return
	}
	if timed {
		s.exactLat = append(s.exactLat, sample{at, ms})
	}
	s.vals = append(s.vals, res.Probability)
}

func (s *sider) write(at time.Duration) {
	if s.err != nil {
		return
	}
	k := s.writes
	s.writes++
	d := selfCancelling(s.facts[(k*7)%len(s.facts)], true)
	root := s.tr.Begin(0, "core.write", s.name)
	id := s.tr.Begin(root, "pdb.ApplyDelta", s.name)
	t0 := time.Now()
	_, err := s.est.ApplyDelta(d)
	ms := msSince(t0)
	s.tr.Finish(id)
	s.tr.Finish(root)
	if err != nil {
		s.err = fmt.Errorf("write %s: %w", s.name, err)
		return
	}
	s.writeLat = append(s.writeLat, sample{at, ms})
}

// wfact is one fact line of a generated database.
type wfact struct {
	rel  string
	args []string
	prob string
}

func parseFacts(db string) []wfact {
	var out []wfact
	for _, line := range strings.Split(strings.TrimSpace(db), "\n") {
		head, prob, _ := strings.Cut(line, " : ")
		rel, rest, _ := strings.Cut(head, "(")
		out = append(out, wfact{rel, strings.Split(strings.TrimSuffix(rest, ")"), ","), prob})
	}
	return out
}

// otherProb is the temporary probability of a self-cancelling
// reweight: any value other than p.
func otherProb(p string) string {
	if p == "1/2" {
		return "1/3"
	}
	return "1/2"
}

// selfCancelling returns a delta that leaves the database's content as
// it was: reweight p → p′ → p, or delete and re-insert the fact.
func selfCancelling(f wfact, reweight bool) *pqe.Delta {
	p, _ := new(big.Rat).SetString(f.prob)
	d := pqe.NewDelta()
	if reweight {
		q, _ := new(big.Rat).SetString(otherProb(f.prob))
		return d.Reweight(f.rel, q, f.args...).Reweight(f.rel, p, f.args...)
	}
	return d.Delete(f.rel, f.args...).Insert(f.rel, p, f.args...)
}

// recheckLib re-runs a seeded subset of the timed ops as fresh one-shot
// calls at MaxProcs 1, in-process, and compares the bits.
func recheckLib(r *runner, env *libEnv, ops []libOp) {
	if len(ops) == 0 {
		r.fail("no ops completed in the window")
		return
	}
	for k := 0; k < recheckOps; k++ {
		op := ops[int(mix64(uint64(r.seed)+uint64(k))%uint64(len(ops)))]
		if op.err != nil {
			continue
		}
		in := env.insts[op.inst]
		d, err := pqe.ParseDatabase(strings.NewReader(in.DB))
		if err != nil {
			r.fail("recheck: %v", err)
			return
		}
		res, err := pqe.Probability(env.queries[op.inst], d,
			&pqe.Options{Strategy: env.spec.strategy, MaxProcs: 1, Seed: op.seed, Epsilon: epsilon})
		r.checks["recheck"]++
		if err != nil || math.Float64bits(res.Probability) != math.Float64bits(op.value) {
			r.fail("recheck of %s seed %d: got %v (%v), timed op gave %v", in.Name, op.seed, res.Probability, err, op.value)
		}
	}
}

// instanceRecord adds each instance's size and route to the run record.
func instanceRecord(r *runner, spec libSpec, insts []Instance, oracles []oracle, ops []libOp) {
	lat := make([][]float64, len(insts))
	for _, op := range ops {
		lat[op.inst] = append(lat[op.inst], op.ms)
	}
	var rows []map[string]any
	for j, in := range insts {
		b, err := buildInstance(nil, in, spec.engine)
		if err != nil {
			r.fail("instance record: %v", err)
			continue
		}
		st, tr, n := b.Size()
		rows = append(rows, map[string]any{
			"name": in.Name, "facts": b.h.Size(), "states": st, "transitions": tr, "n": n,
			"width": b.width, "route": string(b.route.Strategy), "exact": oracles[j].value,
			"ops": len(lat[j]), "p50_ms": median(lat[j]),
		})
	}
	r.record["instances"] = rows
}

// tracedLib holds the traced window of a library workload.
type tracedLib struct {
	ops   []libOp
	reg   *obs.Registry
	built []*built
	shard *shardScrape
}

// runTracedLib builds the family through module-level calls and runs
// the same op seeds again with a span per call. Its estimates must be
// bit-identical to the untraced ones.
func runTracedLib(r *runner, spec libSpec, env *libEnv, window time.Duration, side *sider, refs *refClock, untraced []libOp) (*tracedLib, error) {
	t := &tracedLib{reg: obs.NewRegistry()}
	sc := obs.NewScope(nil, t.reg, nil)
	for _, in := range env.insts {
		b, err := buildInstance(r.tr, in, spec.engine)
		if err != nil {
			return nil, err
		}
		t.built = append(t.built, b)
	}
	var run func(i, j int, s int64, root int) (float64, error)
	if spec.shards > 0 {
		pool, err := shard.Dial(env.addrs, shard.PoolConfig{})
		if err != nil {
			return nil, err
		}
		defer pool.Close()
		sess := make([]*core.Estimator, len(t.built))
		for j, b := range t.built {
			sess[j] = core.NewEstimator(b.q, b.h, core.Options{})
			if _, err := sess[j].Evaluate(core.Options{Strategy: spec.strategy, Seed: warmSeed(r.seed, j), Epsilon: epsilon, MaxProcs: 1, Shard: pool}); err != nil {
				return nil, err
			}
		}
		t.shard = newShardScrape(env.debug, t.reg)
		t.shard.begin(pool.Stats())
		defer func() { t.shard.end(pool.Stats()) }()
		run = func(i, j int, s int64, root int) (float64, error) {
			id := r.tr.Begin(root, "shard.call", fmt.Sprint(i))
			res, err := sess[j].Evaluate(core.Options{Strategy: spec.strategy, Seed: s, Epsilon: epsilon, MaxProcs: 1, Shard: pool, Obs: sc})
			r.tr.Finish(id)
			return res.Probability, err
		}
	} else {
		run = func(i, j int, s int64, root int) (float64, error) {
			return t.built[j].estimate(r.tr, root, fmt.Sprint(i), s, epsilon, spec.maxProcs, sc), nil
		}
	}
	rt := startRuntimeSampler()
	side.tr = r.tr
	defer func() { side.tr = nil }()
	t.ops = closedLoop(window, side, refs, func(i int) libOp {
		j := i % len(t.built)
		s := opSeed(r.seed, i)
		root := r.tr.Begin(0, "core.op", fmt.Sprint(i))
		t0 := time.Now()
		v, err := run(i, j, s, root)
		ms := msSince(t0)
		r.tr.Finish(root)
		return libOp{inst: j, seed: s, value: v, ms: ms, err: err}
	})
	r.runtime = rt.stop()
	for i, op := range t.ops {
		if i >= len(untraced) {
			break
		}
		r.checks["traced_bits"]++
		if op.err != nil || math.Float64bits(op.value) != math.Float64bits(untraced[i].value) {
			r.fail("traced op %d (%s) gave %v (%v), untraced %v", i, env.insts[op.inst].Name, op.value, op.err, untraced[i].value)
		}
	}
	return t, nil
}

// report derives the per-layer metrics of a traced library run.
func (t *tracedLib) report(r *runner, spec libSpec, untraced []libOp) {
	spans := r.tr.Spans()
	var opSpans []Span
	byID := map[int]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	inOp := func(s Span) bool {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s.Name == "core.op"
	}
	for _, s := range spans {
		if inOp(s) {
			opSpans = append(opSpans, s)
		}
	}
	nOps := float64(len(t.ops))
	opSelf := nameSelfSeconds(opSpans)
	layers := layerSelfSeconds(opSpans)
	accounted := 0.0
	for l, v := range layers {
		if l != "core" {
			accounted += v
		}
	}
	opTotal := rootSeconds(opSpans)
	r.layer("core.glue_s", ratio(opTotal-accounted, nOps))
	untracedMean := 0.0
	for _, op := range untraced {
		untracedMean += op.ms
	}
	untracedMean /= float64(len(untraced))
	tracedMean := 0.0
	for _, op := range t.ops {
		tracedMean += op.ms
	}
	tracedMean /= nOps
	r.layer("obs.trace_overhead_frac", tracedMean/untracedMean-1)

	setupLayers(r, spans)
	setupSizes(r, t.built)

	engine, prefix, other, busy := "countnfta", "count.", "nfa.", opSelf["count.Trees"]
	if spec.engine == "nfa" {
		engine, prefix, other, busy = "countnfa", "nfa.", "count.", opSelf["nfa.Count"]
	}
	src := registrySource(t.reg)
	procs := spec.maxProcs
	run, saved := src(engine+"_trials_total"), src(engine+"_trials_saved_total")
	// The program's own clock for the engine: the in-process engine's
	// wall time, or the busiest shard worker's.
	engineWall := src(engine+"_wall_ns_total") / 1e9
	if t.shard != nil {
		src, busy, procs = t.shard.workers, t.shard.engineSeconds(), 1
		run, saved = registrySource(t.reg)("shard_trials_dispatched_total"), registrySource(t.reg)("shard_trials_saved_total")
		engineWall = t.shard.criticalSeconds()
	}
	// How much of the op time the benchmark measured the program's own
	// engine clock accounts for: two independent clocks, so a span that
	// misses or double-counts engine work moves it away from just under 1.
	r.layer("obs.reconcile_frac", ratio(engineWall, opTotal))
	engineLayer(r, prefix, engine, src, busy, nOps)
	zeroEngineLayer(r, other)
	schedLayer(r, engine, src, procs, nOps)
	seqstopLayer(r, run, saved, nOps)
	routerLayer(r, map[string]float64{spec.engine: nOps}, nOps)
	serveZero(r)
	if t.shard != nil {
		t.shard.report(r, opSelf["shard.call"], nOps)
	} else {
		shardZero(r)
	}
	r.layerRuntime()
}

// setupLayers reports the construction layers (per instance built) and
// the exact legs and writes (per call).
func setupLayers(r *runner, spans []Span) {
	self := nameSelfSeconds(spans)
	calls := map[string]float64{}
	for _, s := range spans {
		calls[s.Name]++
	}
	per := func(name string) float64 { return ratio(self[name], calls[name]) }
	r.layer("cq.parse_s", per("cq.Parse"))
	r.layer("pdb.load_s", per("pdb.Parse"))
	r.layer("pdb.apply_delta_s", per("pdb.ApplyDelta"))
	r.layer("router.decide_s", per("router.Decide"))
	r.layer("hypertree.decompose_s", per("hypertree.Decompose"))
	r.layer("reduction.build_s", per("reduction.Build"))
	r.layer("reduction.trim_s", per("reduction.Trim"))
	r.layer("reduction.weight_s", ratio(self["reduction.WeightUR"]+self["reduction.WeightPathNFA"],
		calls["reduction.WeightUR"]+calls["reduction.WeightPathNFA"]))
	r.layer("safeplan.eval_s", per("safeplan.Evaluate"))
	r.layer("obdd.compile_s", per("obdd.CompileDNF"))
	r.layer("obdd.wmc_s", per("obdd.WMC"))
}

// setupSizes reports the width and the weighted automaton sizes of the
// built instances.
func setupSizes(r *runner, bs []*built) {
	var width, states, trans, n float64
	for _, b := range bs {
		st, tr, nn := b.Size()
		width = math.Max(width, float64(b.width))
		states += float64(st)
		trans += float64(tr)
		n += float64(nn)
	}
	k := float64(len(bs))
	r.layer("hypertree.width", width)
	r.layer("reduction.states", ratio(states, k))
	r.layer("reduction.transitions", ratio(trans, k))
	r.layer("reduction.n", ratio(n, k))
}
