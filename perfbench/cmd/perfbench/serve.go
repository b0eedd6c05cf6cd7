package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/big"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"pqe"
	"pqe/internal/cq"
	"pqe/internal/pdb"
)

// served is one database pqed serves.
type served struct {
	name  string
	text  string // the database in the one-fact-per-line format
	facts []wfact
}

// template is one kind of serve_mixed request. Its class is fixed by
// how the template routes on the commit that defined the benchmark,
// never by the response, so a routing change shows as a latency change.
type template struct {
	class    string   // "exact", "fpras" or "write"
	db       int      // index into the served databases
	inst     Instance // reads: the query, over the served database's text
	maxProcs int      // reads: 1 for exact, 2 for fpras
	weight   float64
}

// serveLayout generates the served databases and the request
// templates, splitting the class shares of layers.json over them:
//
//   - exact reads of star3 on "star" (safe plan) and of a small path3 on
//     "small" (OBDD lineage WMC);
//   - fpras reads on "fpras", one database holding three instances over
//     disjoint relations: path4 (path NFA), a half-weight snowflake
//     (NFTA) taking most of them, and the rational-weight 3-hub
//     snowflake (NFTA, 23 facts);
//   - self-cancelling writes on "fpras", so each waits for whatever
//     fpras read holds that database.
//
// The shares within the fpras class put its median inside the
// half-weight snowflake's reads and its p90 inside the rational one's.
func serveLayout(seed int64, share map[string]float64) ([]served, []template) {
	star, small := star(seed), path(seed, 3, 2, 2, "rational")
	fp := []Instance{path(seed, 4, 4, 6, "half"), snowflake(seed, 3, "half", "G"), snowflake(seed, 3, "light", "F")}
	text := fp[0].DB + fp[1].DB + fp[2].DB
	dbs := []served{{name: "star", text: star.DB}, {name: "small", text: small.DB}, {name: "fpras", text: text}}
	for i := range dbs {
		dbs[i].facts = parseFacts(dbs[i].text)
	}
	over := func(in Instance) Instance { in.DB = text; return in }
	return dbs, []template{
		{"exact", 0, star, 1, share["exact"] / 2},
		{"exact", 1, small, 1, share["exact"] / 2},
		{"fpras", 2, over(fp[0]), 2, share["fpras"] * 0.2},
		{"fpras", 2, over(fp[1]), 2, share["fpras"] * 0.6},
		{"fpras", 2, over(fp[2]), 2, share["fpras"] * 0.2},
		{"write", 2, Instance{}, 0, share["write"]},
	}
}

// pqedProc is a running pqed child and its address.
type pqedProc struct {
	c    *child
	base string
}

var listenRE = regexp.MustCompile(`pqed listening on (\S+)`)

// startPQED generates and writes the databases, starts pqed over them,
// and warms one session per read template.
func startPQED(r *runner, k int) (*pqedProc, []served, []template, error) {
	dbs, tmpls := serveLayout(r.seed, r.cfg.Serve.ClassShare)
	args := []string{"-budget", fmt.Sprint(r.cfg.Serve.Budget), "-max-sessions", "64",
		"-flight-recorder-size", "16384", "-log-format", "json"}
	for _, d := range dbs {
		p := filepath.Join(r.work, fmt.Sprintf("serve-%s.pdb", d.name))
		if err := os.WriteFile(p, []byte(d.text), 0o644); err != nil {
			return nil, nil, nil, err
		}
		args = append(args, "-db", d.name+"="+p)
	}
	addr, err := freePort()
	if err != nil {
		return nil, nil, nil, err
	}
	args = append(args, "-addr", addr)
	c, _, err := startChild(r.bin("pqed"), args, filepath.Join(r.work, fmt.Sprintf("pqed-%d.log", k)),
		[]*regexp.Regexp{listenRE}, 30*time.Second)
	if err != nil {
		return nil, nil, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := waitTCP(ctx, addr); err != nil {
		c.stop()
		return nil, nil, nil, err
	}
	p := &pqedProc{c: c, base: "http://" + addr}
	cl := newClient()
	for i, t := range tmpls {
		if t.class == "write" {
			continue
		}
		req := readBody(dbs[t.db], t, warmSeed(r.seed, i))
		if _, err := post(cl, p.base+"/v1/estimate", "warm", req); err != nil {
			c.stop()
			return nil, nil, nil, fmt.Errorf("warm-up %s: %w", t.inst.Name, err)
		}
	}
	return p, dbs, tmpls, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

type estimateOptions struct {
	Strategy string  `json:"strategy"`
	Seed     int64   `json:"seed"`
	Epsilon  float64 `json:"epsilon"`
	MaxProcs int     `json:"max_procs"`
}

func readBody(d served, t template, seed int64) map[string]any {
	return map[string]any{"query": t.inst.Query, "database": d.name,
		"options": estimateOptions{Strategy: "auto", Seed: seed, Epsilon: epsilon, MaxProcs: t.maxProcs}}
}

type deltaOp struct {
	Op       string   `json:"op"`
	Relation string   `json:"relation"`
	Args     []string `json:"args"`
	Prob     string   `json:"prob,omitempty"`
}

// writeOps is a self-cancelling delta on one fact of d.
func writeOps(d served, idx int) []deltaOp {
	f := d.facts[(idx*7)%len(d.facts)]
	if idx%2 == 0 {
		return []deltaOp{{"reweight", f.rel, f.args, otherProb(f.prob)}, {"reweight", f.rel, f.args, f.prob}}
	}
	return []deltaOp{{"delete", f.rel, f.args, ""}, {"insert", f.rel, f.args, f.prob}}
}

// reply is the decoded body of an estimate or delta response.
type reply struct {
	Probability float64 `json:"probability"`
	Exact       bool    `json:"exact"`
	Method      string  `json:"method"`
	Version     uint64  `json:"version"`
	Error       string  `json:"error"`
}

func post(cl *http.Client, url, id string, body any) (reply, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return reply{}, err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	resp, err := cl.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	var rep reply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return reply{}, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if resp.StatusCode/100 != 2 {
		return rep, fmt.Errorf("status %d: %s", resp.StatusCode, rep.Error)
	}
	return rep, nil
}

// served request outcome.
type sreq struct {
	id    string
	tmpl  int
	seed  int64
	ops   []deltaOp
	rep   reply
	err   error
	out   Outcome
	start time.Time // window start, for spans
}

// sequenceLen is the length of the seeded template sequence the
// caller cycles through.
const sequenceLen = 1000

// runWindow runs one caller in a closed loop for window over one
// keep-alive connection: request idx uses template seq[idx mod len(seq)]
// of a sequence drawn from the workload seed, and is sent as soon as the
// previous one has completed and a run of the reference matched to its
// class has been timed: refHTTP after every exact read and write,
// refHTTPPar after every other fpras read.
func runWindow(r *runner, p *pqedProc, dbs []served, tmpls []template, prefix string, window time.Duration, refs *refClock) []sreq {
	weights := make([]float64, len(tmpls))
	for i, t := range tmpls {
		weights[i] = t.weight
	}
	seq := templateSequence(r.seed, sequenceLen, weights)
	cl := newClient()
	defer cl.CloseIdleConnections()
	var reqs []sreq
	fpras := 0
	start := time.Now()
	outs := runCaller(window, func(idx int) {
		q := sreq{id: fmt.Sprintf("%s%d", prefix, idx), tmpl: seq[idx%len(seq)], start: start}
		t := tmpls[q.tmpl]
		d := dbs[t.db]
		if t.class == "write" {
			q.ops = writeOps(d, idx)
			q.rep, q.err = post(cl, p.base+"/v1/delta", q.id, map[string]any{"database": d.name, "ops": q.ops})
		} else {
			q.seed = opSeed(r.seed, idx)
			q.rep, q.err = post(cl, p.base+"/v1/estimate", q.id, readBody(d, t, q.seed))
		}
		reqs = append(reqs, q)
	}, func(idx int, at time.Duration) {
		if tmpls[reqs[idx].tmpl].class == "fpras" {
			if fpras%2 == 0 {
				refs.run(refHTTPPar, at)
			}
			fpras++
		} else {
			refs.run(refHTTP, at)
		}
	})
	for i := range reqs {
		reqs[i].out = outs[i]
	}
	return reqs
}

func runServe(r *runner) error {
	var p *pqedProc
	var dbs []served
	var tmpls []template
	var setups, scaled []float64
	for k := 0; k < setupRuns; k++ {
		if p != nil {
			p.c.stop()
			p = nil
		}
		t0 := time.Now()
		np, nd, nt, err := startPQED(r, k)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		scaled = append(scaled, setups[k]*setupFactor())
		p, dbs, tmpls = np, nd, nt
	}
	defer p.c.stop()
	r.record["setup_runs_s"] = setups
	r.record["setup_runs_scaled_s"] = scaled
	echo, err := startEcho(r)
	if err != nil {
		return err
	}
	defer echo.close()
	// Peak RSS covers the timed window only.
	if err := resetPeakRSS(p.c.cmd.Process.Pid); err != nil {
		return err
	}

	window := r.window
	if r.trace {
		window /= 2
	}
	refs := newRefClock(window, echo)
	reqs := runWindow(r, p, dbs, tmpls, "u-", window, refs)
	if refs.err != nil {
		return refs.err
	}
	rss := p.c.peakRSSMB()
	var traced []sreq
	var tstats *serveTrace
	if r.trace {
		var err error
		if traced, tstats, err = runTracedServe(r, p, dbs, tmpls, window, echo); err != nil {
			return err
		}
	}
	r.record["requests"] = len(reqs)

	// Oracles: writes cancel, so each read template sees one content
	// state.
	oracles := make([]oracle, len(tmpls))
	for i, t := range tmpls {
		if t.class == "write" {
			continue
		}
		q, _ := cq.Parse(t.inst.Query)
		h, err := pdb.Parse(strings.NewReader(t.inst.DB))
		if err != nil {
			return err
		}
		root := r.tr.Begin(0, "core.oracle", t.inst.Name)
		oracles[i], err = exactOracle(r.tr, root, t.inst.Name, q, h)
		r.tr.Finish(root)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", t.inst.Name, err)
		}
	}
	classes := map[string]*classStats{
		"fpras": newClass(r.limits("fpras"), refHTTPPar, window), "exact": newClass(r.limits("exact"), refHTTP, window),
		"write": newClass(r.limits("write"), refHTTP, window),
	}
	within, fpras := 0, 0
	all := append(append([]sreq(nil), reqs...), traced...)
	for i, q := range all {
		t := tmpls[q.tmpl]
		if i < len(reqs) {
			classes[t.class].add(q.out.Sent, float64(q.out.Latency().Nanoseconds())/1e6, q.err)
		}
		if q.err != nil || t.class == "write" {
			continue
		}
		exact := oracles[q.tmpl].value
		if q.rep.Exact {
			r.checks["exact_vs_oracle"]++
			if relErr(q.rep.Probability, exact) > 1e-12 {
				r.fail("exact read %s of %s = %.17g, oracle %.17g", q.id, t.inst.Name, q.rep.Probability, exact)
			}
			continue
		}
		if i < len(reqs) {
			fpras++
			if relErr(q.rep.Probability, exact) <= epsilon {
				within++
			}
		}
	}
	recheckServe(r, dbs, tmpls, all, tstats)
	var info []map[string]any
	for k, t := range tmpls {
		if t.class == "write" {
			continue
		}
		var lat []float64
		for _, q := range reqs {
			if q.tmpl == k && q.err == nil {
				lat = append(lat, float64(q.out.Latency().Nanoseconds())/1e6)
			}
		}
		row := map[string]any{"name": t.inst.Name, "database": dbs[t.db].name, "class": t.class,
			"exact": oracles[k].value, "n_reads": len(lat), "p50_ms": median(lat), "p90_ms": percentile(lat, 90)}
		if b, err := buildInstance(nil, t.inst, engineFor(t.inst)); err == nil {
			st, tr, n := b.Size()
			row["facts"], row["states"], row["transitions"], row["n"] = b.h.Project(b.q.RelationSet()).Size(), st, tr, n
			row["width"], row["route"] = b.width, string(b.route.Strategy)
		}
		info = append(info, row)
	}
	r.record["instances"] = info

	r.e2e("setup_s", median(scaled))
	r.e2e("peak_rss_mb", rss)
	r.e2e("est_per_s", classes["fpras"].perSecond(refs))
	r.e2e("within_eps_frac", ratio(float64(within), float64(fpras)))
	r.finishClasses(classes, refs)
	if tstats != nil {
		tstats.report(r, dbs, tmpls, reqs, traced)
	}
	return nil
}

// engineFor names the FPRAS engine a served instance's reads would use
// if forced: the path NFA for path queries, the NFTA otherwise.
func engineFor(in Instance) string {
	if strings.HasPrefix(in.Name, "path") {
		return "nfa"
	}
	return "nfta"
}

// recheckServe re-runs a seeded subset of reads as library calls at
// the response's database version (replaying the writes that preceded
// it) and compares the bits. It also feeds the engine counters of the
// FPRAS re-runs to the traced report.
func recheckServe(r *runner, dbs []served, tmpls []template, reqs []sreq, ts *serveTrace) {
	// Writes per database, in version order.
	writes := make([][]sreq, len(dbs))
	for _, q := range reqs {
		if q.err == nil && tmpls[q.tmpl].class == "write" {
			writes[tmpls[q.tmpl].db] = append(writes[tmpls[q.tmpl].db], q)
		}
	}
	for _, w := range writes {
		sort.Slice(w, func(i, j int) bool { return w[i].rep.Version < w[j].rep.Version })
	}
	// One read per read template, picked by seed.
	picked := map[int]bool{}
	for k := 0; k < len(reqs) && len(picked) < len(tmpls); k++ {
		q := reqs[int(mix64(uint64(r.seed)+uint64(k))%uint64(len(reqs)))]
		if q.err != nil || tmpls[q.tmpl].class == "write" || picked[q.tmpl] {
			continue
		}
		picked[q.tmpl] = true
		t := tmpls[q.tmpl]
		d := dbs[t.db]
		db, err := pqe.ParseDatabase(strings.NewReader(d.text))
		if err != nil {
			r.fail("recheck: %v", err)
			return
		}
		for _, w := range writes[t.db] {
			if w.rep.Version > q.rep.Version {
				break
			}
			if _, err := db.ApplyDelta(compileOps(w.ops)); err != nil {
				r.fail("recheck replay: %v", err)
				return
			}
		}
		r.checks["recheck"]++
		if db.Version() != q.rep.Version {
			r.fail("recheck %s: replayed database is at version %d, response at %d", q.id, db.Version(), q.rep.Version)
			continue
		}
		var tel *pqe.Telemetry
		if ts != nil && t.class == "fpras" {
			tel = pqe.NewTelemetry()
		}
		res, err := pqe.Probability(pqe.MustParseQuery(t.inst.Query), db,
			&pqe.Options{Strategy: "auto", Seed: q.seed, Epsilon: epsilon, MaxProcs: t.maxProcs, Telemetry: tel})
		if err != nil || math.Float64bits(res.Probability) != math.Float64bits(q.rep.Probability) {
			r.fail("recheck %s of %s: library %v (%v), server %v", q.id, t.inst.Name, res.Probability, err, q.rep.Probability)
		}
		if tel != nil {
			ts.addEngine(tel)
		}
	}
}

func compileOps(ops []deltaOp) *pqe.Delta {
	d := pqe.NewDelta()
	for _, op := range ops {
		p, _ := new(big.Rat).SetString(op.Prob)
		switch op.Op {
		case "reweight":
			d.Reweight(op.Relation, p, op.Args...)
		case "delete":
			d.Delete(op.Relation, op.Args...)
		case "insert":
			d.Insert(op.Relation, p, op.Args...)
		}
	}
	return d
}

// serveTrace holds the traced half of a serve_mixed run.
type serveTrace struct {
	before, after Scrape
	records       map[string]flightRecord
	heapPeak      float64
	mu            sync.Mutex
	engine        map[string]float64 // engine counters of the FPRAS re-runs
	engineOps     float64
}

type flightRecord struct {
	ID     string             `json:"id"`
	Route  string             `json:"route"`
	Start  time.Time          `json:"start"`
	Wall   float64            `json:"wall_seconds"`
	Phases map[string]float64 `json:"phases"`
}

var engineCounters = []string{"trials", "trials_saved", "union_samples", "accept_checks", "rejections",
	"memo_hits", "memo_misses", "plan_cache_hits", "plan_cache_misses", "wall_ns", "worker_busy_ns",
	"sched_chunks", "sched_steals", "calls"}

func (s *serveTrace) addEngine(tel *pqe.Telemetry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range []string{"countnfta", "countnfa"} {
		for _, c := range engineCounters {
			s.engine[e+"_"+c+"_total"] += float64(tel.CounterValue(e + "_" + c + "_total"))
		}
	}
	s.engineOps++
}

// runTracedServe runs the traced half: the same schedule again with a
// client span per request, /metrics scraped around it, and the
// flight-recorder records joined by request ID.
func runTracedServe(r *runner, p *pqedProc, dbs []served, tmpls []template, window time.Duration, echo *echoClient) ([]sreq, *serveTrace, error) {
	ts := &serveTrace{engine: map[string]float64{}}
	cl := newClient()
	for _, t := range tmpls {
		// Benchmark-side construction of each read template's instance,
		// for the set-up layers.
		if t.class == "write" {
			continue
		}
		if _, err := buildInstance(r.tr, t.inst, engineFor(t.inst)); err != nil {
			return nil, nil, err
		}
	}
	var err error
	if ts.before, err = scrapeURL(cl, p.base+"/metrics"); err != nil {
		return nil, nil, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			if sc, err := scrapeURL(cl, p.base+"/metrics"); err == nil {
				ts.mu.Lock()
				ts.heapPeak = math.Max(ts.heapPeak, sc.Sum("go_heap_objects_bytes"))
				ts.mu.Unlock()
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	rt := startRuntimeSampler()
	refs := newRefClock(window, echo)
	reqs := runWindow(r, p, dbs, tmpls, "t-", window, refs)
	r.runtime = rt.stop()
	close(stop)
	wg.Wait()
	if refs.err != nil {
		return nil, nil, refs.err
	}
	if ts.after, err = scrapeURL(cl, p.base+"/metrics"); err != nil {
		return nil, nil, err
	}
	resp, err := cl.Get(p.base + "/debug/requests")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var fr struct {
		Completed []flightRecord `json:"completed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		return nil, nil, fmt.Errorf("decode /debug/requests: %w", err)
	}
	ts.records = map[string]flightRecord{}
	for _, rec := range fr.Completed {
		ts.records[rec.ID] = rec
	}
	for _, q := range reqs {
		rec, ok := ts.records[q.id]
		root := r.tr.Add(0, "core.request", q.id, q.start.Add(q.out.Sent), q.start.Add(q.out.Done))
		if !ok {
			r.fail("request %s missing from /debug/requests", q.id)
			continue
		}
		srv := r.tr.Add(root, "serve.server", q.id, rec.Start, rec.Start.Add(secs(rec.Wall)))
		at := rec.Start
		for _, ph := range []string{"queue", "build", "sample", "serialize"} {
			d := secs(rec.Phases[ph])
			r.tr.Add(srv, "serve."+ph, q.id, at, at.Add(d))
			at = at.Add(d)
		}
	}
	return reqs, ts, nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// report derives the per-layer metrics of a traced serve_mixed run.
func (s *serveTrace) report(r *runner, dbs []served, tmpls []template, untraced, traced []sreq) {
	delta := s.after.Delta(s.before)
	n := float64(len(traced))
	var net, glue, lockWait, writes, reqLat []float64
	dispatch := map[string]float64{}
	reads := 0.0
	for _, q := range traced {
		reqLat = append(reqLat, q.out.Latency().Seconds())
		rec, ok := s.records[q.id]
		if ok {
			net = append(net, (q.out.Done-q.out.Sent).Seconds()-rec.Wall)
			glue = append(glue, rec.Wall-(rec.Phases["queue"]+rec.Phases["build"]+rec.Phases["sample"]+rec.Phases["serialize"]))
			if rec.Route == "delta" {
				lockWait = append(lockWait, rec.Phases["queue"])
			}
		}
		if tmpls[q.tmpl].class == "write" {
			writes = append(writes, 1)
			continue
		}
		if q.err == nil {
			reads++
			dispatch[methodRoute(q.rep.Method)]++
		}
	}
	mean := func(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }
	r.layer("serve.queue_s", delta.phaseSeconds("queue", "")/n)
	r.layer("serve.build_s", delta.phaseSeconds("build", "")/n)
	r.layer("serve.sample_s", delta.phaseSeconds("sample", "")/n)
	r.layer("serve.serialize_s", delta.phaseSeconds("serialize", "")/n)
	r.layer("serve.net_s", mean(net))
	r.layer("serve.write_lock_wait_s", mean(lockWait))
	hits, misses := delta.Sum("pqed_session_hits_total"), delta.Sum("pqed_session_misses_total")
	r.layer("serve.session_hit_frac", ratio(hits, hits+misses))
	r.layer("serve.evictions", delta.Sum("pqed_session_evictions_total"))
	r.layer("serve.shed", delta.Sum("pqed_requests_shed_total"))
	r.layer("serve.deadlines", delta.Sum("pqed_deadlines_total"))
	spans := r.tr.Spans()
	setupLayers(r, spans)
	r.layer("pdb.apply_delta_s", ratio(delta.phaseSeconds("build", "delta"), float64(len(writes))))
	r.layer("core.glue_s", mean(glue))
	// How much of the round trips the benchmark measured pqed's own
	// phase accounting (/metrics) explains.
	phases := 0.0
	for _, ph := range []string{"queue", "build", "sample", "serialize"} {
		phases += delta.phaseSeconds(ph, "")
	}
	r.layer("obs.reconcile_frac", ratio(phases, sum(reqLat)))
	var untracedLat []float64
	for _, q := range untraced {
		untracedLat = append(untracedLat, q.out.Latency().Seconds())
	}
	r.layer("obs.trace_overhead_frac", mean(reqLat)/mean(untracedLat)-1)

	// Sizes of the FPRAS-routed served instances.
	var bs []*built
	for _, t := range tmpls {
		if t.class != "fpras" {
			continue
		}
		if b, err := buildInstance(nil, t.inst, engineFor(t.inst)); err == nil {
			bs = append(bs, b)
		}
	}
	setupSizes(r, bs)
	routerLayer(r, dispatch, reads)

	src := func(name string) float64 { return s.engine[name] }
	for _, e := range []struct{ prefix, engine string }{{"count.", "countnfta"}, {"nfa.", "countnfa"}} {
		busy := s.engine[e.engine+"_wall_ns_total"] / 1e9
		calls := s.engine[e.engine+"_calls_total"]
		engineLayer(r, e.prefix, e.engine, src, busy, calls)
	}
	var run, saved, busyNs, wallNs, chunks, steals, calls float64
	for _, e := range []string{"countnfta", "countnfa"} {
		run += s.engine[e+"_trials_total"]
		saved += s.engine[e+"_trials_saved_total"]
		busyNs += s.engine[e+"_worker_busy_ns_total"]
		wallNs += s.engine[e+"_wall_ns_total"]
		chunks += s.engine[e+"_sched_chunks_total"]
		steals += s.engine[e+"_sched_steals_total"]
		calls += s.engine[e+"_calls_total"]
	}
	r.layer("sched.worker_busy_frac", ratio(busyNs, wallNs*2))
	r.layer("sched.chunks", ratio(chunks, calls))
	r.layer("sched.steals", ratio(steals, calls))
	seqstopLayer(r, run, saved, calls)
	shardZero(r)
	r.layer("runtime.gc_cpu_frac", r.runtime.gcCPUFrac)
	r.layer("runtime.heap_peak_mb", s.heapPeak/(1<<20))
}

// methodRoute maps a response's method to the router's route name.
func methodRoute(m string) string {
	switch {
	case strings.HasPrefix(m, "safe-plan"):
		return "safeplan"
	case strings.HasPrefix(m, "obdd"):
		return "obdd"
	case strings.HasPrefix(m, "lineage"):
		return "lineage"
	case strings.Contains(m, "path NFA"):
		return "nfa"
	case strings.Contains(m, "NFTA"):
		return "nfta"
	}
	return "other"
}
