package trials

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"pqe/internal/efloat"
	"pqe/internal/obs"
	"pqe/internal/sched"
	"pqe/internal/seqstop"
)

// seedEstimate is a trial whose estimate is its seed, so tests can read
// back which seed each trial was handed.
func seedEstimate(_ *sched.Worker, _ int, seed int64) (efloat.E, int) {
	return efloat.FromInt(seed), 1
}

// rangeLog is a Remote executor whose trial t estimates est(t); it
// records the ranges it was handed and runs hook (when set) first.
type rangeLog struct {
	mu     sync.Mutex
	ranges [][2]int
	est    func(t int) efloat.E
	hook   func()
}

func (r *rangeLog) remote() Remote {
	return func(ctx context.Context, lo, hi int) ([]efloat.E, error) {
		r.mu.Lock()
		r.ranges = append(r.ranges, [2]int{lo, hi})
		r.mu.Unlock()
		if r.hook != nil {
			r.hook()
		}
		out := make([]efloat.E, hi-lo)
		for i := range out {
			out[i] = r.est(lo + i)
		}
		return out, nil
	}
}

// Trial t's seed is the t-th Int63 of the PRNG, whatever range runs and
// at every scheduler width.
func TestLocalSeedsAreScheduleDraws(t *testing.T) {
	const trials = 7
	rng := rand.New(rand.NewSource(11))
	want := make([]int64, trials)
	for i := range want {
		want[i] = rng.Int63()
	}
	for _, procs := range []int{1, 3} {
		for _, r := range [][2]int{{0, trials}, {2, 5}, {6, 7}} {
			d := New(Config{Engine: "test", Trials: trials, Rng: rand.New(rand.NewSource(11))})
			got, err := d.Range(&Local{Procs: procs, Trial: seedEstimate}, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range got {
				if e.Cmp(efloat.FromInt(want[r[0]+i])) != 0 {
					t.Errorf("procs %d range %v: trial %d got seed %v, want %d", procs, r, r[0]+i, e, want[r[0]+i])
				}
			}
		}
	}
}

func TestMedianFixedIsUpperMedian(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 6}
	log := &rangeLog{est: func(t int) efloat.E { return efloat.FromFloat(vals[t]) }}
	d := New(Config{Engine: "test", Trials: len(vals)})
	got, err := d.Median(log.remote())
	if err != nil {
		t.Fatal(err)
	}
	if got.Float() != 4 {
		t.Errorf("median %v, want upper median 4", got)
	}
	if len(log.ranges) != 1 || log.ranges[0] != [2]int{0, 6} {
		t.Errorf("fixed schedule ran ranges %v, want one batch [0, 6)", log.ranges)
	}
}

// The anytime schedule runs seqstop's batches and stops at the first
// batch whose trials agree; the saved trials land in the counters.
func TestAnytimeBatches(t *testing.T) {
	const trials, eps = 11, 0.2
	plan := seqstop.New(eps, 0, trials, 0)
	for _, tc := range []struct {
		name  string
		est   func(t int) efloat.E
		stops int
	}{
		{"agree", func(int) efloat.E { return efloat.FromInt(8) }, plan.Floor},
		{"disagree", func(t int) efloat.E { return efloat.FromInt(int64(1 + t)) }, trials},
		{"all zero", func(int) efloat.E { return efloat.Zero }, plan.Floor},
		{"zero and nonzero", func(t int) efloat.E { return efloat.FromInt(int64(t % 2)) }, trials},
	} {
		reg := obs.NewRegistry()
		log := &rangeLog{est: tc.est}
		d := New(Config{Engine: "test", Counters: CountersFor("ctr"), Trials: trials, Epsilon: eps, Anytime: true, Obs: obs.NewScope(nil, reg, nil)})
		if _, err := d.Median(log.remote()); err != nil {
			t.Fatal(err)
		}
		executed := 0
		for _, r := range log.ranges {
			if r[0] != executed || r[1] != plan.NextBatch(executed) {
				t.Fatalf("%s: ranges %v do not follow the seqstop batches", tc.name, log.ranges)
			}
			executed = r[1]
		}
		if executed != tc.stops {
			t.Errorf("%s: executed %d trials, want %d", tc.name, executed, tc.stops)
		}
		saved := int64(trials - executed)
		if v := reg.Counter("ctr_trials_saved_total").Value(); v != saved {
			t.Errorf("%s: trials saved %d, want %d", tc.name, v, saved)
		}
		stops := int64(0)
		if saved > 0 {
			stops = 1
		}
		if v := reg.Counter("ctr_anytime_stops_total").Value(); v != stops {
			t.Errorf("%s: anytime stops %d, want %d", tc.name, v, stops)
		}
	}
}

// A context cancelled during a batch ends the call with its error at
// the batch boundary; no later batch is dispatched.
func TestCancelAtBatchBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	log := &rangeLog{est: func(t int) efloat.E { return efloat.FromInt(int64(1 + t)) }, hook: cancel}
	d := New(Config{Engine: "test", Trials: 9, Epsilon: 0.1, Anytime: true, Ctx: ctx})
	if _, err := d.Median(log.remote()); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if len(log.ranges) != 1 {
		t.Errorf("dispatched %v after cancellation, want only the first batch", log.ranges)
	}
	// An already-cancelled call dispatches nothing.
	log.ranges = nil
	if _, err := d.Median(log.remote()); err != context.Canceled || len(log.ranges) != 0 {
		t.Errorf("cancelled call: err %v, ranges %v", err, log.ranges)
	}
}

// Locally, queued trials observe cancellation before they start.
func TestLocalSkipsQueuedTrialsAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	l := &Local{Procs: 1, Trial: func(w *sched.Worker, t int, seed int64) (efloat.E, int) {
		ran++
		cancel()
		return efloat.One, 0
	}}
	d := New(Config{Engine: "test", Trials: 5, Rng: rand.New(rand.NewSource(1)), Ctx: ctx})
	if _, err := d.Median(l); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran != 1 {
		t.Errorf("%d trials ran, want 1", ran)
	}
}

func TestRemoteErrors(t *testing.T) {
	boom := errors.New("boom")
	d := New(Config{Engine: "test", Trials: 3})
	if _, err := d.Median(Remote(func(context.Context, int, int) ([]efloat.E, error) { return nil, boom })); err != boom {
		t.Errorf("executor error: got %v", err)
	}
	short := Remote(func(context.Context, int, int) ([]efloat.E, error) { return []efloat.E{efloat.One}, nil })
	if _, err := d.Median(short); err == nil {
		t.Error("short range accepted")
	}
}

func TestRangeBounds(t *testing.T) {
	d := New(Config{Engine: "test", Trials: 4, Rng: rand.New(rand.NewSource(1))})
	for _, r := range [][2]int{{-1, 2}, {3, 2}, {0, 5}} {
		if _, err := d.Range(&Local{Procs: 1, Trial: seedEstimate}, r[0], r[1]); err == nil {
			t.Errorf("range %v accepted", r)
		}
	}
	if got, err := d.Range(&Local{Procs: 1, Trial: seedEstimate}, 2, 2); got != nil || err != nil {
		t.Errorf("empty range: %v, %v", got, err)
	}
}

// Every executed trial gets one convergence record and, locally, one
// trial span under the call span.
func TestTrialTelemetry(t *testing.T) {
	for _, local := range []bool{true, false} {
		tr := obs.NewTracer()
		conv := obs.NewConvergence()
		sc, span := obs.NewScope(tr, obs.NewRegistry(), conv).Span("call")
		d := New(Config{Engine: "eng", Trials: 5, Epsilon: 0.3, Rng: rand.New(rand.NewSource(1)), Obs: sc, Span: span})
		var exec Executor = &Local{Procs: 2, Trial: seedEstimate}
		if !local {
			exec = (&rangeLog{est: func(t int) efloat.E { return efloat.FromInt(int64(t)) }}).remote()
		}
		if _, err := d.Median(exec); err != nil {
			t.Fatal(err)
		}
		span.End()
		recs := conv.Snapshot()
		seen := make(map[int]bool)
		for _, r := range recs {
			if r.Engine != "eng" || r.Trials != 5 || r.Epsilon != 0.3 || r.Call != 1 {
				t.Errorf("local %v: record %+v", local, r)
			}
			seen[r.Trial] = true
		}
		if len(recs) != 5 || len(seen) != 5 {
			t.Errorf("local %v: %d records over %d trials, want 5", local, len(recs), len(seen))
		}
		want := 0
		if local {
			want = 5
		}
		if n := len(span.Children()); n != want {
			t.Errorf("local %v: %d trial spans, want %d", local, n, want)
		}
	}
}
