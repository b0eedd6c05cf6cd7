// Command perfbench is the repository's benchmark. It generates one
// workload's inputs from a seed, drives the program through one way in
// (the library, the pqed HTTP service, or the library over shard worker
// processes), checks every answer against exact oracles and bit-for-bit
// re-runs, and prints the metrics BENCHMARK.json names.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload tree_fpras --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics of
// an untraced run; with --trace 1 it carries the per-layer metrics of a
// traced run, in which the benchmark records spans around its own calls
// into each module. The lines before it are the run record (host, seed,
// instances, per-class counts, checks). Spans are written to the work
// directory when the run ends.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

//go:embed layers.json
var layersJSON []byte

// Config joins BENCHMARK.json, which lists the workloads and the metrics
// with their units, to layers.json, which holds what does not fit
// BENCHMARK.json's fixed keys: each workload's class latency limits and
// tail percentiles, the serve_mixed settings, the metric definitions and
// the layer → end-to-end metric → workload map.
type Config struct {
	EndToEnd  []MetricDef   `json:"end_to_end"`
	PerLayer  []MetricDef   `json:"per_layer"`
	Workloads []WorkloadDef `json:"workloads"`
	Serve     ServeDef      `json:"-"`
	byName    map[string]*WorkloadDef
}

type MetricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type ClassDef struct {
	LimitMS  float64 `json:"limit_ms"`
	TailPct  float64 `json:"tail_percentile"`
	Expected int     `json:"expected_samples"`
}

type WorkloadDef struct {
	Name    string              `json:"name"`
	Classes map[string]ClassDef `json:"classes"`
}

type ServeDef struct {
	Budget     int                `json:"budget"`
	ClassShare map[string]float64 `json:"class_share"`
}

// layersFile is the part of layers.json the benchmark reads.
type layersFile struct {
	Workloads map[string]struct {
		Classes map[string]ClassDef `json:"classes"`
	} `json:"workloads"`
	Serve ServeDef `json:"serve_mixed"`
}

// loadConfig reads the BENCHMARK.json at path and joins it to the
// embedded layers.json. Every workload must have its settings there
// and be implemented.
func loadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var l layersFile
	if err := json.Unmarshal(layersJSON, &l); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	c.Serve = l.Serve
	c.byName = map[string]*WorkloadDef{}
	for i := range c.Workloads {
		w := &c.Workloads[i]
		set, ok := l.Workloads[w.Name]
		_, lib := libSpecs[w.Name]
		if !ok || (!lib && w.Name != "serve_mixed") {
			return nil, fmt.Errorf("workload %s: no settings in layers.json or not implemented", w.Name)
		}
		w.Classes = set.Classes
		c.byName[w.Name] = w
	}
	return &c, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner carries one run's settings and accumulates its outputs.
type runner struct {
	cfg      *Config
	wl       *WorkloadDef
	seed     int64
	window   time.Duration
	trace    bool
	binDir   string
	work     string
	tr       *Tracer // nil in untraced runs
	metrics  map[string]float64
	record   map[string]any
	checks   map[string]int
	failures []string
	attempt  int
	failed   int
	runtime  runtimeStats
}

func (r *runner) bin(name string) string { return filepath.Join(r.binDir, name) }

func (r *runner) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *runner) e2e(name string, v float64)   { r.metrics[name] = v }
func (r *runner) layer(name string, v float64) { r.metrics[name] = v }

func (r *runner) limits(class string) ClassDef { return r.wl.Classes[class] }

// slices is the number of equal parts of the timed window. Each
// latency and throughput metric is computed per slice and reported as
// the median over the slices, so that a burst of host interference
// (the hypervisor's CPU steal comes in bursts of a few seconds) moves
// one or two slices and not the figure.
const slices = 5

// sliceOf is the slice of the window an op sent at offset at falls in.
func sliceOf(at, window time.Duration) int {
	k := int(int64(at) * slices / int64(window))
	return min(max(k, 0), slices-1)
}

// sliceMedian applies stat to each slice's values and returns the
// median over the slices that have values, and the per-slice figures.
func sliceMedian(per [slices][]float64, stat func([]float64) float64) (float64, []float64) {
	var figs []float64
	for _, xs := range per {
		if len(xs) > 0 {
			figs = append(figs, stat(xs))
		}
	}
	return median(figs), figs
}

// classStats collects one request class's latencies, by slice of the
// window, and outcomes. Its latency figures are scaled by the reference
// ref (see refClock).
type classStats struct {
	def       ClassDef
	ref       refKind
	window    time.Duration
	ms        [slices][]float64
	attempted int
	ok        int
	failed    int
	inLimit   int
}

func newClass(def ClassDef, ref refKind, window time.Duration) *classStats {
	return &classStats{def: def, ref: ref, window: window}
}

// scaled returns the class's latencies of each slice times that slice's
// reference factor at the given percentile (refP50 or refP90).
func (c *classStats) scaled(refs *refClock, pct int) [slices][]float64 {
	f := refs.factors(c.ref, pct)
	var out [slices][]float64
	for k, xs := range c.ms {
		for _, x := range xs {
			out[k] = append(out[k], x*f[k])
		}
	}
	return out
}

// perSecond is the class's ops completed per second the caller spent in
// them, per slice, median over the slices, at the reference speed.
func (c *classStats) perSecond(refs *refClock) float64 {
	v, _ := sliceMedian(c.scaled(refs, refP50), func(ms []float64) float64 { return float64(len(ms)) * 1e3 / sum(ms) })
	return v
}

// add records one op sent at offset at into the window; a failed op
// counts as a miss of the limit.
func (c *classStats) add(at time.Duration, ms float64, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		return
	}
	c.ok++
	k := sliceOf(at, c.window)
	c.ms[k] = append(c.ms[k], ms)
	if ms <= c.def.LimitMS {
		c.inLimit++
	}
}

// finishClasses reports the latency metrics, scaled to the reference
// speed, and the goodput of the three classes, and records per-class
// counts and per-slice figures, measured and scaled.
func (r *runner) finishClasses(classes map[string]*classStats, refs *refClock) {
	names := map[string]string{"fpras": "est", "exact": "exact", "write": "write"}
	counts := map[string]any{}
	inLimit, attempted := 0, 0
	for _, class := range []string{"fpras", "exact", "write"} {
		c := classes[class]
		p := names[class]
		tailOf := func(xs []float64) float64 { return percentile(xs, c.def.TailPct) }
		p50, p50s := sliceMedian(c.scaled(refs, refP50), median)
		tail, tails := sliceMedian(c.scaled(refs, tailPercentileOf(c.ref)), tailOf)
		_, rawP50s := sliceMedian(c.ms, median)
		_, rawTails := sliceMedian(c.ms, tailOf)
		r.e2e(p+"_p50_ms", p50)
		r.e2e(p+"_tail_ms", tail)
		fewest := c.ok
		for _, xs := range c.ms {
			fewest = min(fewest, len(xs))
		}
		counts[class] = map[string]any{
			"attempted": c.attempted, "succeeded": c.ok, "failed": c.failed, "within_limit": c.inLimit,
			"limit_ms": c.def.LimitMS, "tail_percentile": c.def.TailPct,
			"rule_percentile": tailPercentile(fewest), "slice_p50_ms": p50s, "slice_tail_ms": tails,
			"measured_slice_p50_ms": rawP50s, "measured_slice_tail_ms": rawTails,
		}
		if tailPercentile(fewest) < c.def.TailPct {
			counts[class].(map[string]any)["warning"] = "a slice has fewer than ten samples beyond the tail percentile"
		}
		inLimit += c.inLimit
		attempted += c.attempted
		r.attempt += c.attempted
		r.failed += c.failed
	}
	r.e2e("goodput_frac", ratio(float64(inLimit), float64(attempted)))
	r.record["classes"] = counts
	r.record["reference"] = refs.record()
}

func main() {
	os.Exit(run())
}

// run parses the flags and runs one workload, or with --workload all
// every workload untraced and then traced, one after the other.
func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name (see BENCHMARK.json), or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 25, "length of the measured window")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	binDir := fs.String("bin", "", "directory holding the built pqe and pqed binaries")
	work := fs.String("work", "", "directory for logs and span files")
	bench := fs.String("benchmark", "BENCHMARK.json", "the benchmark's BENCHMARK.json")
	echo := fs.Bool("echo", false, "run as the echo process of the refHTTP reference")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *echo {
		return serveEcho()
	}
	cfg, err := loadConfig(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if (*workload != "all" && cfg.byName[*workload] == nil) || *seconds < 1 || *binDir == "" || *work == "" {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (all or one of %v), --seconds ≥ 1, --bin and --work\n", workloadNames(cfg))
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	type job struct {
		wl    *WorkloadDef
		trace bool
	}
	var jobs []job
	if *workload == "all" {
		for i := range cfg.Workloads {
			jobs = append(jobs, job{&cfg.Workloads[i], false}, job{&cfg.Workloads[i], true})
		}
	} else {
		jobs = []job{{cfg.byName[*workload], *trace == 1}}
	}
	for _, j := range jobs {
		r := &runner{
			cfg: cfg, wl: j.wl, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: j.trace,
			binDir: *binDir, work: *work,
			metrics: map[string]float64{}, record: map[string]any{}, checks: map[string]int{},
		}
		if err := runOne(r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", j.wl.Name, err)
			return 1
		}
	}
	return 0
}

// runOne runs one workload and prints its run record and, as the last
// line, its result.
func runOne(r *runner) error {
	if r.trace {
		r.tr = NewTracer()
	}
	r.record["host"] = map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
	r.record["workload"] = r.wl.Name
	r.record["seed"] = r.seed
	r.record["seconds"] = r.window.Seconds()
	r.record["trace"] = r.trace

	cpu0 := readCPUStat()
	var err error
	if spec, ok := libSpecs[r.wl.Name]; ok {
		err = runLib(r, spec)
	} else if r.wl.Name == "serve_mixed" {
		err = runServe(r)
	} else {
		err = fmt.Errorf("not implemented")
	}
	if err != nil {
		return err
	}
	if cpu1 := readCPUStat(); cpu1.total > cpu0.total {
		// Host CPU time the hypervisor gave to others, and time spent
		// busy, over the run: context for a slow or noisy run.
		r.record["host_steal_frac"] = float64(cpu1.steal-cpu0.steal) / float64(cpu1.total-cpu0.total)
		r.record["host_busy_frac"] = 1 - float64(cpu1.idle-cpu0.idle)/float64(cpu1.total-cpu0.total)
	}
	defs := r.cfg.EndToEnd
	if r.trace {
		defs = r.cfg.PerLayer
		spans := r.tr.Spans()
		r.record["layer_self_s"] = layerSelfSeconds(spans)
		r.record["traced_root_s"] = rootSeconds(spans)
		spanPath := filepath.Join(r.work, fmt.Sprintf("spans-%s-seed%d.json", r.wl.Name, r.seed))
		if err := r.tr.WriteFile(spanPath); err != nil {
			return err
		}
		r.record["spans_file"] = spanPath
	}
	res := result{Correct: len(r.failures) == 0, Attempted: r.attempt, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no ops attempted")
	}
	r.record["checks"] = r.checks
	r.record["failures"] = r.failures
	rec, err := json.Marshal(map[string]any{"record": r.record})
	if err != nil {
		return err
	}
	fmt.Println(string(rec))
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func workloadNames(c *Config) []string {
	var out []string
	for _, w := range c.Workloads {
		out = append(out, w.Name)
	}
	sort.Strings(out)
	return out
}
