package core

import (
	"context"
	"fmt"

	"pqe/internal/count"
	"pqe/internal/efloat"
	"pqe/internal/nfa"
	"pqe/internal/obs"
	"pqe/internal/pdb"
	"pqe/internal/trials"
)

// Shard modes name the four FPRAS counting phases a coordinator can
// distribute. The mode tells a worker which reduction to build and
// which engine range function to run; everything else about the trial
// schedule travels in the ShardSpec.
const (
	ShardModeUR      = "ur"      // count.Trees over the Proposition 1 automaton
	ShardModePQE     = "pqe"     // count.Trees over the Theorem 1 weighted automaton
	ShardModePath    = "path"    // nfa.Count over the Section 3 string automaton
	ShardModePathPQE = "pathpqe" // nfa.Count over the weighted string automaton
)

// ShardSpec is the self-contained description of one distributed
// counting call: the instance (as public text formats, so any process
// can rebuild the session), the counting mode, and the fully resolved
// trial schedule. Every field is resolved by the coordinator before
// dispatch — workers apply no defaults of their own — so coordinator
// and workers agree on (epsilon, trials, samples, seed) byte for byte.
//
// Determinism contract: a worker executing trials [lo, hi) of a spec
// derives trial t's PRNG from (Seed, site, index) exactly as the local
// engines do, so the per-trial estimates are independent of how the
// range [0, Trials) is partitioned and of which worker runs which part.
type ShardSpec struct {
	// Query and DB are the instance in the public text formats
	// (cq.Parse / pdb.ParseString). UR-only sessions wrap their plain
	// database with all-one probabilities.
	Query string
	DB    string
	// MaxWidth is the session's construction knob (0 = |Q|).
	MaxWidth int
	// Mode selects the counting phase (ShardMode*).
	Mode string
	// N is the counted object size (tree size or word length); States
	// the automaton's state count. Workers rebuild the reduction from
	// (Query, DB, MaxWidth) and cross-check both against the spec, so a
	// construction divergence between processes fails loudly instead of
	// silently merging estimates of different automata.
	N      int
	States int
	// Epsilon, Trials, Samples and Seed are the resolved trial
	// schedule.
	Epsilon float64
	Trials  int
	Samples int
	Seed    int64
}

// Engine returns the obs engine label of the spec's counting phase, so
// coordinator-side convergence records match what a local run of the
// same phase would emit.
func (s ShardSpec) Engine() string {
	switch s.Mode {
	case ShardModePath, ShardModePathPQE:
		return "countnfa"
	}
	return "countnfta"
}

// Sharder runs trial ranges of a counting call on worker processes.
// The implementation (internal/shard.Pool) owns range partitioning and
// worker failover; core runs the call's trial driver over it — the
// batches, the anytime stop, cancellation between batches and the
// median merge, exactly as for a local call — and the post-counting
// scaling, which stays on the coordinator.
type Sharder interface {
	// CountRange executes trials [lo, hi) of the spec's schedule and
	// returns their estimates in trial order.
	CountRange(ctx context.Context, sc *obs.Scope, spec ShardSpec, lo, hi int) ([]efloat.E, error)
}

// instanceText renders the session's instance in the public text
// format a worker can reload. UR-only sessions (no probabilities) wrap
// the plain database with all-one probabilities; the UR pipelines never
// read them.
func (e *Estimator) instanceText() string {
	if e.h != nil {
		return pdb.FormatString(e.h)
	}
	return pdb.FormatString(pdb.NewProbabilistic(e.d, pdb.ProbOne))
}

// shardSpec assembles the dispatchable description of one counting
// phase, resolving the trial schedule exactly as the local engine
// would.
func (e *Estimator) shardSpec(opts Options, mode string, n, states int) ShardSpec {
	spec := ShardSpec{
		Query:    e.q.String(),
		DB:       e.instanceText(),
		MaxWidth: e.opts.MaxWidth,
		Mode:     mode,
		N:        n,
		States:   states,
		Seed:     opts.seed(),
	}
	switch mode {
	case ShardModePath, ShardModePathPQE:
		spec.Epsilon, spec.Trials, spec.Samples = opts.nfaOptions(nil).ResolveSchedule()
	default:
		spec.Epsilon, spec.Trials, spec.Samples = opts.countOptions(nil).ResolveSchedule()
	}
	return spec
}

// shardCounters are the sharded schedule's shard_trials_saved_total
// and shard_anytime_stops_total counters.
var shardCounters = trials.CountersFor("shard")

// shardCount runs one counting phase's trial schedule through the
// call's Sharder and returns the merged estimate. A cancelled call
// returns the context's error.
func (e *Estimator) shardCount(sc *obs.Scope, opts Options, mode string, n, states int) (efloat.E, error) {
	spec := e.shardSpec(opts, mode, n, states)
	sc, span := sc.Span("shard.count")
	defer span.End()
	if span != nil {
		span.SetAttr("mode", spec.Mode)
		span.SetAttr("trials", spec.Trials)
		span.SetAttr("epsilon", spec.Epsilon)
	}
	sc.Counter("shard_calls_total").Inc()
	d := trials.New(trials.Config{
		Engine:   spec.Engine(),
		Counters: shardCounters,
		Trials:   spec.Trials,
		Epsilon:  spec.Epsilon,
		Anytime:  opts.anytime(),
		Delta:    opts.Delta,
		Ctx:      opts.Ctx,
		Obs:      sc,
		Span:     span,
	})
	c, err := d.Median(trials.Remote(func(ctx context.Context, lo, hi int) ([]efloat.E, error) {
		return opts.Shard.CountRange(ctx, sc, spec, lo, hi)
	}))
	if err != nil {
		if cerr := opts.ctxErr(); cerr != nil {
			return efloat.Zero, cerr
		}
		return efloat.Zero, fmt.Errorf("core: sharded %s count: %w", mode, err)
	}
	return c, nil
}

// CountTrials is the worker half of the shard protocol: execute trials
// [lo, hi) of the spec's schedule on this process's session and return
// their estimates in trial order. The session is rebuilt from the
// spec's text instance (the shard worker caches Estimators per spec),
// and the reduction geometry is cross-checked against the spec before
// any sampling runs.
func (e *Estimator) CountTrials(spec ShardSpec, lo, hi, maxProcs int, sc *obs.Scope) ([]efloat.E, error) {
	e.syncVersion()
	check := func(n, states int) error {
		if n != spec.N || states != spec.States {
			return fmt.Errorf("core: shard geometry mismatch for mode %s: built (n=%d, states=%d), spec (n=%d, states=%d)",
				spec.Mode, n, states, spec.N, spec.States)
		}
		return nil
	}
	switch spec.Mode {
	case ShardModeUR:
		red, err := e.urReduction()
		if err != nil {
			return nil, err
		}
		if err := check(red.TreeSize, red.Auto.NumStates()); err != nil {
			return nil, err
		}
		return count.TreesRange(red.Auto, spec.N, e.shardCountOptions(spec, maxProcs, sc), lo, hi)
	case ShardModePQE:
		weighted, err := e.pqeReduction()
		if err != nil {
			return nil, err
		}
		if err := check(weighted.TreeSize, weighted.Auto.NumStates()); err != nil {
			return nil, err
		}
		return count.TreesRange(weighted.Auto, spec.N, e.shardCountOptions(spec, maxProcs, sc), lo, hi)
	case ShardModePath:
		m, err := e.pathAutomaton()
		if err != nil {
			return nil, err
		}
		if err := check(e.proj().Size(), m.NumStates()); err != nil {
			return nil, err
		}
		return nfa.CountRange(m, spec.N, e.shardNFAOptions(spec, maxProcs, sc), lo, hi)
	case ShardModePathPQE:
		red, err := e.pathPQEReduction()
		if err != nil {
			return nil, err
		}
		if err := check(red.WordSize, red.Auto.NumStates()); err != nil {
			return nil, err
		}
		return nfa.CountRange(red.Auto, spec.N, e.shardNFAOptions(spec, maxProcs, sc), lo, hi)
	}
	return nil, fmt.Errorf("core: unknown shard mode %q", spec.Mode)
}

func (e *Estimator) shardCountOptions(spec ShardSpec, maxProcs int, sc *obs.Scope) count.Options {
	return count.Options{
		Epsilon:  spec.Epsilon,
		Trials:   spec.Trials,
		Samples:  spec.Samples,
		Seed:     spec.Seed,
		MaxProcs: maxProcs,
		Obs:      sc,
	}
}

func (e *Estimator) shardNFAOptions(spec ShardSpec, maxProcs int, sc *obs.Scope) nfa.CountOptions {
	return nfa.CountOptions{
		Epsilon:  spec.Epsilon,
		Trials:   spec.Trials,
		Samples:  spec.Samples,
		Seed:     spec.Seed,
		MaxProcs: maxProcs,
		Obs:      sc,
	}
}
