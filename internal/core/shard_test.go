package core

import (
	"context"
	"testing"

	"pqe/internal/cq"
	"pqe/internal/efloat"
	"pqe/internal/gen"
	"pqe/internal/obs"
)

// cancellingSharder is an in-process Sharder that runs each range on a
// worker estimator through CountTrials, logs the ranges it was asked
// for, and calls cancel while each one runs.
type cancellingSharder struct {
	worker *Estimator
	cancel context.CancelFunc
	ranges [][2]int
}

func (s *cancellingSharder) CountRange(ctx context.Context, sc *obs.Scope, spec ShardSpec, lo, hi int) ([]efloat.E, error) {
	s.ranges = append(s.ranges, [2]int{lo, hi})
	s.cancel()
	return s.worker.CountTrials(spec, lo, hi, 1, nil)
}

// A sharded anytime call checks cancellation at every batch boundary:
// a context cancelled while batch 1 runs ends the call with ctx.Err(),
// and batch 2 is never dispatched.
func TestShardedCancelBetweenBatches(t *testing.T) {
	q := cq.PathQuery("R", 3)
	h := gen.Instance(q, gen.Config{FactsPerRelation: 4, DomainSize: 3, Model: gen.ProbRandomRational, Seed: 5})
	// Delta > 0 selects the anytime schedule: a floor batch of 3 trials,
	// then batches of 2 up to the cap of 9. Few samples under a narrow
	// ε-band keep the floor batch's trials from agreeing, so an
	// uncancelled call runs more than one batch.
	opts := Options{Epsilon: 0.05, Samples: 8, Trials: 9, Seed: 3, Delta: 0.1}
	sh := &cancellingSharder{worker: NewEstimator(q, h, Options{}), cancel: func() {}}
	opts.Shard = sh
	if _, err := NewEstimator(q, h, Options{}).PQEEstimate(opts); err != nil || len(sh.ranges) < 2 {
		t.Fatalf("uncancelled call: err %v, ranges %v; want several batches", err, sh.ranges)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sh = &cancellingSharder{worker: NewEstimator(q, h, Options{}), cancel: cancel}
	opts.Shard, opts.Ctx = sh, ctx
	_, err := NewEstimator(q, h, Options{}).PQEEstimate(opts)
	if err == nil || err != ctx.Err() {
		t.Fatalf("cancelled sharded call returned %v, want %v", err, ctx.Err())
	}
	if len(sh.ranges) != 1 || sh.ranges[0] != [2]int{0, 3} {
		t.Fatalf("dispatched ranges %v, want only the first batch [0, 3)", sh.ranges)
	}
}
