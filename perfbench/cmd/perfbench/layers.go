package main

import (
	"net/http"
	"runtime/metrics"
	"sync"
	"time"

	"pqe/internal/obs"
	"pqe/internal/shard"
)

// counterSource reads an engine counter total over the traced window.
type counterSource func(name string) float64

func registrySource(reg *obs.Registry) counterSource {
	return func(name string) float64 { return float64(reg.Counter(name).Value()) }
}

// engineLayer reports the ten sampling metrics of one counting engine
// (prefix "count." or "nfa."), per op. busy is the engine's busy time
// over the window in seconds.
func engineLayer(r *runner, prefix, engine string, c counterSource, busy, nOps float64) {
	get := func(s string) float64 { return c(engine + "_" + s + "_total") }
	union := get("union_samples")
	rej := get("rejections")
	checks := get("accept_checks")
	r.layer(prefix+"busy_s", ratio(busy, nOps))
	r.layer(prefix+"trials", ratio(get("trials"), nOps))
	r.layer(prefix+"union_samples", ratio(union, nOps))
	r.layer(prefix+"accept_checks", ratio(checks, nOps))
	r.layer(prefix+"accept_per_sample", ratio(checks, union))
	r.layer(prefix+"rejections", ratio(rej, nOps))
	r.layer(prefix+"draw_accept_frac", ratio(union, union+rej))
	hits, misses := get("memo_hits"), get("memo_misses")
	r.layer(prefix+"memo_hit_frac", ratio(hits, hits+misses))
	ph, pm := get("plan_cache_hits"), get("plan_cache_misses")
	r.layer(prefix+"plan_cache_hit_frac", ratio(ph, ph+pm))
	r.layer(prefix+"ns_per_sample", ratio(busy*1e9, union))
}

// zeroEngineLayer reports an engine the workload does not use.
func zeroEngineLayer(r *runner, prefix string) {
	engineLayer(r, prefix, "none", func(string) float64 { return 0 }, 0, 1)
}

// schedLayer reports the scheduler's worker utilization and work
// items per op.
func schedLayer(r *runner, engine string, c counterSource, procs int, nOps float64) {
	busy := c(engine + "_worker_busy_ns_total")
	wall := c(engine + "_wall_ns_total")
	r.layer("sched.worker_busy_frac", ratio(busy, wall*float64(procs)))
	r.layer("sched.chunks", ratio(c(engine+"_sched_chunks_total"), nOps))
	r.layer("sched.steals", ratio(c(engine+"_sched_steals_total"), nOps))
}

// seqstopLayer reports sequential stopping: trials run and saved per
// op, and the share of the trial cap the stopping rule saved.
func seqstopLayer(r *runner, run, saved, nOps float64) {
	r.layer("seqstop.trials_run", ratio(run, nOps))
	r.layer("seqstop.trials_saved", ratio(saved, nOps))
	r.layer("seqstop.early_stop_frac", ratio(saved, run+saved))
}

var routes = []string{"safeplan", "obdd", "lineage", "nfa", "nfta"}

// routerLayer reports where reads were dispatched (counts per route in
// the traced window) and the FPRAS share.
func routerLayer(r *runner, dispatch map[string]float64, reads float64) {
	for _, rt := range routes {
		r.layer("router.dispatch."+rt, dispatch[rt])
	}
	r.layer("router.fpras_frac", ratio(dispatch["nfa"]+dispatch["nfta"], reads))
}

var serveLayerNames = []string{"serve.queue_s", "serve.build_s", "serve.sample_s",
	"serve.serialize_s", "serve.net_s", "serve.write_lock_wait_s", "serve.session_hit_frac",
	"serve.evictions", "serve.shed", "serve.deadlines"}

// serveZero reports the serve layer on workloads that do not use it.
func serveZero(r *runner) {
	for _, n := range serveLayerNames {
		r.layer(n, 0)
	}
}

var shardLayerNames = []string{"shard.call_s", "shard.merge_wait_s", "shard.transport_s", "shard.ranges",
	"shard.trials_dispatched", "shard.reassigned", "shard.worker_failures"}

func shardZero(r *runner) {
	for _, n := range shardLayerNames {
		r.layer(n, 0)
	}
}

// shardScrape brackets a traced shard window: worker /metrics scrapes,
// pool dispatch counters and the coordinator's registry.
type shardScrape struct {
	debug       []string
	client      *http.Client
	before0     []Scrape
	delta       []Scrape
	stats0      shard.Stats
	stats       shard.Stats
	coordinator *obs.Registry
	err         error
}

func newShardScrape(debug []string, reg *obs.Registry) *shardScrape {
	return &shardScrape{debug: debug, client: &http.Client{Timeout: 10 * time.Second}, coordinator: reg}
}

func (s *shardScrape) scrapeAll() []Scrape {
	out := make([]Scrape, len(s.debug))
	for i, a := range s.debug {
		sc, err := scrapeURL(s.client, "http://"+a+"/metrics")
		if err != nil && s.err == nil {
			s.err = err
		}
		out[i] = sc
	}
	return out
}

func (s *shardScrape) begin(st shard.Stats) { s.before0, s.stats0 = s.scrapeAll(), st }

func (s *shardScrape) end(st shard.Stats) {
	after := s.scrapeAll()
	s.delta = make([]Scrape, len(after))
	for i := range after {
		s.delta[i] = after[i].Delta(s.before0[i])
	}
	s.stats = st
}

// workers sums a counter over the workers' scrape deltas.
func (s *shardScrape) workers(name string) float64 {
	t := 0.0
	for _, d := range s.delta {
		t += d.Sum(name)
	}
	return t
}

// engineSeconds is the workers' summed engine wall time over the
// window.
func (s *shardScrape) engineSeconds() float64 { return s.workers("countnfta_wall_ns_total") / 1e9 }

// criticalSeconds is the busiest worker's engine wall time over the
// window: the part of the calls' critical path spent sampling.
func (s *shardScrape) criticalSeconds() float64 {
	m := 0.0
	for _, d := range s.delta {
		if v := d.Sum("countnfta_wall_ns_total") / 1e9; v > m {
			m = v
		}
	}
	return m
}

func (s *shardScrape) report(r *runner, callS, nOps float64) {
	if s.err != nil {
		r.fail("shard worker scrape: %v", s.err)
	}
	reg := s.coordinator
	r.layer("shard.call_s", ratio(callS, nOps))
	r.layer("shard.merge_wait_s", ratio(reg.Histogram("shard_merge_wait_seconds").Sum(), nOps))
	r.layer("shard.transport_s", ratio(callS-s.criticalSeconds(), nOps))
	r.layer("shard.ranges", ratio(float64(s.stats.RangesDispatched-s.stats0.RangesDispatched), nOps))
	r.layer("shard.trials_dispatched", ratio(float64(s.stats.TrialsDispatched-s.stats0.TrialsDispatched), nOps))
	r.layer("shard.reassigned", float64(s.stats.Reassigned-s.stats0.Reassigned))
	r.layer("shard.worker_failures", float64(s.stats.WorkerFailures-s.stats0.WorkerFailures))
}

// runtimeStats is the Go runtime's view of a traced window in the
// benchmark process.
type runtimeStats struct {
	gcCPUFrac  float64
	heapPeakMB float64
}

// runtimeSampler polls runtime/metrics every 50ms for the peak heap
// and reads the GC share of CPU over its lifetime.
type runtimeSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	mu    sync.Mutex
	peak  float64
	gc0   float64
	cpu0  float64
}

var runtimeMetricNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/memory/classes/heap/objects:bytes"}

func readRuntime() (gc, cpu, heap float64) {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return val(0), val(1), val(2)
}

func startRuntimeSampler() *runtimeSampler {
	s := &runtimeSampler{stopc: make(chan struct{})}
	s.gc0, s.cpu0, s.peak = readRuntime()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-t.C:
				_, _, h := readRuntime()
				s.mu.Lock()
				if h > s.peak {
					s.peak = h
				}
				s.mu.Unlock()
			}
		}
	}()
	return s
}

func (s *runtimeSampler) stop() runtimeStats {
	close(s.stopc)
	s.wg.Wait()
	gc, cpu, h := readRuntime()
	if h > s.peak {
		s.peak = h
	}
	return runtimeStats{gcCPUFrac: ratio(gc-s.gc0, cpu-s.cpu0), heapPeakMB: s.peak / (1 << 20)}
}

func (r *runner) layerRuntime() {
	r.layer("runtime.gc_cpu_frac", r.runtime.gcCPUFrac)
	r.layer("runtime.heap_peak_mb", r.runtime.heapPeakMB)
}
