// Package trials is the trial driver of both FPRAS engines (CountNFTA
// in internal/count, CountNFA in internal/nfa), locally and sharded.
// Both approximation schemes boost one trial of the Arenas et al.
// union estimator ("When is Approximate Counting for Conjunctive
// Queries Tractable?") by taking the upper median of independent
// trials; this package owns that schedule for one counting call:
//
//   - the per-trial seeds: trial t's seed is the t-th Int63 of the
//     call's PRNG, drawn for the whole schedule whatever range runs;
//   - the batches: one batch of all Trials, or the deterministic anytime
//     batches of internal/seqstop, stopping at the first batch whose
//     spread certificate meets (ε, δ);
//   - cancellation, checked at every batch boundary and before each
//     queued trial;
//   - telemetry: a "trial" span and an obs.TrialRecord per trial, and
//     the <engine>_trials_saved_total / <engine>_anytime_stops_total
//     counters;
//   - the upper-median merge.
//
// A batch runs through an Executor: Local runs it on this process's
// work-stealing scheduler (internal/sched) over the engine's per-trial
// function; Remote hands the range to a dispatcher such as the shard
// pool. Batch boundaries and the stop decision depend only on (ε, δ,
// Trials) and the per-trial estimates, so a call's result is
// bit-identical at every worker count and placement.
package trials

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"pqe/internal/efloat"
	"pqe/internal/obs"
	"pqe/internal/sched"
	"pqe/internal/seqstop"
)

// Config is one counting call's resolved trial schedule and telemetry
// sinks.
type Config struct {
	// Engine labels the trial records ("countnfta" or "countnfa").
	Engine string
	// Counters names the schedule counters; the zero value emits none.
	Counters Counters
	// Trials is the fixed schedule length, the anytime hard cap.
	Trials int
	// Epsilon is the per-trial relative-error target.
	Epsilon float64
	// Anytime selects the seqstop batches, with failure target Delta
	// and trial floor MinTrials (0 derives it from Delta).
	Anytime   bool
	Delta     float64
	MinTrials int
	// Rng, when non-nil, supplies the per-trial seeds of a Local
	// executor.
	Rng *rand.Rand
	// Ctx, when non-nil, cancels the call between batches and trials.
	Ctx context.Context
	// Obs receives the counters and trial records; Span, the call's
	// span, parents the per-trial spans. Both may be nil.
	Obs  *obs.Scope
	Span *obs.Span
}

// Driver runs one counting call's trial schedule. Build it with New;
// it is a value so an engine can keep it inside its own call state.
type Driver struct {
	cfg   Config
	ctx   context.Context
	conv  *obs.Convergence
	call  int64
	seeds []int64
}

// New prepares the schedule, drawing every trial seed up front.
func New(cfg Config) Driver {
	d := Driver{cfg: cfg, ctx: cfg.Ctx, conv: cfg.Obs.Convergence()}
	if d.ctx == nil {
		d.ctx = context.Background()
	}
	d.call = d.conv.NextCall()
	if cfg.Rng != nil {
		d.seeds = make([]int64, cfg.Trials)
		for t := range d.seeds {
			d.seeds[t] = cfg.Rng.Int63()
		}
	}
	return d
}

// Counters names a schedule's registry counters,
// <prefix>_trials_saved_total and <prefix>_anytime_stops_total. Build
// it once per engine, in a package variable, so a call concatenates no
// strings.
type Counters struct{ saved, stops string }

// CountersFor names the schedule counters under prefix.
func CountersFor(prefix string) Counters {
	return Counters{prefix + "_trials_saved_total", prefix + "_anytime_stops_total"}
}

// An Executor runs trials [lo, hi) of a schedule as one batch, writing
// trial t's estimate to est[t−lo].
type Executor interface {
	run(d *Driver, lo, hi int, est []efloat.E) error
}

// Median runs the whole schedule and returns the upper median of the
// executed trials. A cancelled call returns the context's error and no
// value.
func (d *Driver) Median(exec Executor) (efloat.E, error) {
	est := make([]efloat.E, d.cfg.Trials)
	executed := d.cfg.Trials
	var err error
	if !d.cfg.Anytime {
		err = d.batch(exec, 0, executed, est)
	} else {
		sp := seqstop.New(d.cfg.Epsilon, d.cfg.Delta, d.cfg.Trials, d.cfg.MinTrials)
		log2s := make([]float64, d.cfg.Trials)
		executed = 0
		for executed < d.cfg.Trials {
			next := sp.NextBatch(executed)
			if err = d.batch(exec, executed, next, est[executed:next]); err != nil {
				break
			}
			for t := executed; t < next; t++ {
				log2s[t] = seqstop.Log2(est[t])
			}
			executed = next
			if sp.Stop(log2s[:executed]) {
				break
			}
		}
	}
	if err != nil {
		return efloat.Zero, err
	}
	d.cfg.Span.SetAttr("trials_executed", executed)
	if reg := d.cfg.Obs.Registry(); reg != nil && d.cfg.Counters.saved != "" {
		saved := d.cfg.Trials - executed
		reg.Counter(d.cfg.Counters.saved).Add(int64(saved))
		if saved > 0 {
			reg.Counter(d.cfg.Counters.stops).Inc()
		}
	}
	return efloat.UpperMedian(est[:executed]), nil
}

// Range runs trials [lo, hi) of the fixed schedule as one batch and
// returns their estimates in trial order, for a coordinator that owns
// the median and the batch boundaries.
func (d *Driver) Range(exec Executor, lo, hi int) ([]efloat.E, error) {
	if lo < 0 || hi < lo || hi > d.cfg.Trials {
		return nil, fmt.Errorf("%s: trial range [%d, %d) outside schedule [0, %d)", d.cfg.Engine, lo, hi, d.cfg.Trials)
	}
	if hi == lo {
		return nil, nil
	}
	est := make([]efloat.E, hi-lo)
	if err := d.batch(exec, lo, hi, est); err != nil {
		return nil, err
	}
	return est, nil
}

// batch runs one batch between two cancellation checks.
func (d *Driver) batch(exec Executor, lo, hi int, est []efloat.E) error {
	if err := d.ctx.Err(); err != nil {
		return err
	}
	if err := exec.run(d, lo, hi, est); err != nil {
		return err
	}
	return d.ctx.Err()
}

// record emits trial t's convergence record.
func (d *Driver) record(t int, e efloat.E, unionSamples int, elapsed time.Duration) {
	d.conv.Record(obs.TrialRecord{
		Engine:       d.cfg.Engine,
		Call:         d.call,
		Trial:        t,
		Trials:       d.cfg.Trials,
		Epsilon:      d.cfg.Epsilon,
		Log2Estimate: seqstop.Log2(e),
		UnionSamples: unionSamples,
		Elapsed:      elapsed,
	})
}

// Local runs batches on this process's work-stealing scheduler.
type Local struct {
	// Procs is the scheduler width; Labels its pprof labels.
	Procs  int
	Labels []string
	// Trial computes trial t's estimate from its seed and reports the
	// overlap samples it drew.
	Trial func(w *sched.Worker, t int, seed int64) (est efloat.E, unionSamples int)
	// Stats accumulates the scheduler statistics of every batch.
	Stats sched.Stats
}

func (l *Local) run(d *Driver, lo, hi int, est []efloat.E) error {
	st := sched.Run(sched.Config{
		Procs:  l.Procs,
		Trials: hi - lo,
		Timed:  d.cfg.Obs.Registry() != nil,
		Labels: l.Labels,
	}, func(w *sched.Worker, i int) {
		if d.ctx.Err() != nil {
			return // queued after cancellation; the call is abandoned
		}
		t := lo + i
		tspan := d.cfg.Span.Start("trial")
		var t0 time.Time
		if d.conv != nil || tspan != nil {
			t0 = time.Now()
		}
		e, samples := l.Trial(w, t, d.seeds[t])
		est[i] = e
		if tspan != nil {
			tspan.SetAttr("trial", t)
			tspan.SetAttr("union_samples", samples)
			tspan.End()
		}
		if d.conv != nil {
			d.record(t, e, samples, time.Since(t0))
		}
	})
	l.Stats.Accumulate(st)
	return nil
}

// Remote runs batches through a range-level dispatcher, such as the
// shard pool, that returns trials [lo, hi)'s estimates in trial order.
// Their trial records are emitted once the range lands.
type Remote func(ctx context.Context, lo, hi int) ([]efloat.E, error)

func (r Remote) run(d *Driver, lo, hi int, est []efloat.E) error {
	vals, err := r(d.ctx, lo, hi)
	if err != nil {
		return err
	}
	if len(vals) != hi-lo {
		return fmt.Errorf("trials: range [%d, %d) returned %d estimates", lo, hi, len(vals))
	}
	copy(est, vals)
	for i, v := range vals {
		d.record(lo+i, v, 0, 0)
	}
	return nil
}
