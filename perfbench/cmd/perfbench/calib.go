package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark runs on a few cores of a shared machine, whose speed
// for this process moves by tens of percent from run to run and within
// a run: other tenants take CPU time (steal), share the cores'
// hyperthreads and caches, and change the clock. A figure measured in
// plain wall time follows the neighbours as much as the program.
//
// So the benchmark times reference runs of fixed work between its ops,
// and scales every latency and throughput figure of a slice of the
// window by the reference's nominal time over its time in that slice.
// The figures read as the time the op would take on a host that runs
// the reference in its nominal time. The references are code of the
// benchmark and the Go standard library only; a change to the program
// leaves them alone.
//
// Each class of ops has the reference that uses the host as it does:
//
//   - refSeq, one goroutine doing big-number arithmetic and string-keyed
//     map updates (without allocating), like the exact reads (OBDD WMC over big.Rat) and the
//     writes (fact updates) of the library workloads;
//   - refPar, small chunks of integer and table work taken by two
//     goroutines as they free up, like the FPRAS estimates, which share
//     their trials out to MaxProcs 2 workers (or two shard workers) and
//     end when the last share is done;
//   - refHTTP and refHTTPPar, a round trip over a keep-alive loopback
//     connection to an echo process of the benchmark's own that decodes
//     the JSON body, runs refSeq's or refPar's work and answers, like
//     serve_mixed's exact reads and writes, and its fpras reads, whose
//     time is partly the two processes waking each other.
//
// Medians and throughput are scaled by the reference's median in the
// slice. Tails of the one-goroutine classes (refSeq, refHTTP) are scaled
// by the reference's p90: its runs last about as long as those exact
// reads, and in their tail the time a goroutine or process waits to run
// on a busy host outweighs the work. Tails of the FPRAS classes are
// scaled by the median, since they come from the slowest instances,
// which run for several times as long as their reference. The set-up time is scaled by refPar runs timed right after each
// set-up (setupFactor).
type refKind int

const (
	refSeq refKind = iota
	refPar
	refHTTP
	refHTTPPar
	numRefs
)

var refNames = [numRefs]string{refSeq: "seq", refPar: "par", refHTTP: "http", refHTTPPar: "http_par"}

// refNominalMS is each reference's median time on the 2-CPU host the
// benchmark was defined on, when that host was quiet; the scaled
// figures are in milliseconds of that host.
var refNominalMS = [numRefs][2]float64{
	refSeq:     {0.21, 0.23},
	refPar:     {4.1, 4.5},
	refHTTP:    {0.45, 0.65},
	refHTTPPar: {5.5, 8.3},
}

// Percentiles of a reference the factors use.
const (
	refP50 = 0
	refP90 = 1
)

var refPercentiles = [2]float64{refP50: 50, refP90: 90}

const (
	refParChunks = 160 // chunks of one refPar run, over two goroutines
	refChunkIter = 1500
	refTableLen  = 1 << 16
)

// refTable and refMap are refPar's data, built once from a fixed seed: a
// 256 KiB table (beyond the first-level cache, within the second) and a
// map of 4096 entries.
var (
	refTable = func() []uint32 {
		t := make([]uint32, refTableLen)
		x := uint64(0x9e3779b97f4a7c15)
		for i := range t {
			x = mix64(x)
			t[i] = uint32(x)
		}
		return t
	}()
	refMap = func() map[uint32]uint32 {
		m := make(map[uint32]uint32, 4096)
		for i := uint32(0); i < 4096; i++ {
			m[i*2] = uint32(mix64(uint64(i)))
		}
		return m
	}()
	refSink atomic.Uint64 // keeps the references' results live
)

// parWork is one run of refPar's work: refParChunks chunks taken by two
// goroutines as they free up.
func parWork(seed uint64) {
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		acc := uint64(0)
		for i := next.Add(1) - 1; i < refParChunks; i = next.Add(1) - 1 {
			acc += refChunk(seed + uint64(i))
		}
		refSink.Add(acc)
	}
	wg.Add(1)
	go func() { defer wg.Done(); work() }()
	work()
	wg.Wait()
}

// refChunk is one chunk of refPar: a fixed number of rounds of a
// xorshift generator, a table read at the generated index, a map read
// that hits about half the time, and a float update.
func refChunk(seed uint64) uint64 {
	x, acc, f := seed|1, uint64(0), 1.0
	for i := 0; i < refChunkIter; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += uint64(refTable[x&(refTableLen-1)])
		if v, ok := refMap[uint32(x>>40)&8191]; ok {
			acc ^= uint64(v)
		}
		f = f*0.999999 + float64(acc&0xff)
	}
	return acc + uint64(f)
}

// seqWork is one run of refSeq's work: weighted sums p·a + (1−p)·b of
// fractions held as big.Int numerators and denominators, as a WMC pass
// over big.Rat computes them, and updates of a map keyed by fact-like
// strings. The inputs are fixed, so the work is too. It reuses its
// values and map, so after its first run it allocates nothing and the
// program's garbage collector does not slow it.
func seqWork() uint64 {
	s := &seqState
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for k := int64(0); k < 32; k++ {
		s.num.SetInt64(1)
		s.den.SetInt64(3)
		for i := int64(1); i <= 40; i++ {
			// num/den ← p·num/den + (1−p)·b with p = i/(2i+1), b = (k+1)/(k+7).
			s.c[0].SetInt64(i * (k + 7))
			s.c[1].SetInt64((i + 1) * (k + 1))
			s.c[2].SetInt64((2*i + 1) * (k + 7))
			s.t.Mul(s.num, s.c[0])
			s.u.Mul(s.den, s.c[1])
			s.num.Add(s.t, s.u)
			s.t.Mul(s.den, s.c[2])
			s.den, s.t = s.t, s.den
		}
		n += uint64(s.num.BitLen() + s.den.BitLen())
	}
	clear(s.m)
	for _, key := range s.keys {
		s.m[key]++
		n += uint64(len(key) + s.m[key])
	}
	return n
}

// seqState is seqWork's reusable state.
var seqState = struct {
	mu             sync.Mutex
	num, den, t, u *big.Int
	c              [3]*big.Int
	keys           []string
	m              map[string]int
}{
	num: new(big.Int), den: new(big.Int), t: new(big.Int), u: new(big.Int),
	c: [3]*big.Int{new(big.Int), new(big.Int), new(big.Int)}, keys: seqKeys(), m: make(map[string]int, 1024),
}

func seqKeys() []string {
	keys := make([]string, 1000)
	for k := range keys {
		keys[k] = "R" + strconv.Itoa(k%97) + "(a" + strconv.Itoa(k%13) + ",b" + strconv.Itoa(k%7) + ")"
	}
	return keys
}

// refClock times reference runs, by slice of a timed window.
type refClock struct {
	window time.Duration
	ms     [numRefs][slices][]float64
	runs   uint64
	echo   *echoClient // nil unless the window uses refHTTP
	err    error       // the first failed refHTTP round trip
}

func newRefClock(window time.Duration, echo *echoClient) *refClock {
	return &refClock{window: window, echo: echo}
}

// run times one run of the given reference, started at offset at into
// the window.
func (c *refClock) run(kind refKind, at time.Duration) {
	c.runs++
	t0 := time.Now()
	switch kind {
	case refSeq:
		refSink.Add(seqWork())
	case refPar:
		parWork(mix64(c.runs))
	case refHTTP, refHTTPPar:
		if err := c.echo.roundTrip(kind); err != nil {
			if c.err == nil {
				c.err = err
			}
			return
		}
	}
	k := sliceOf(at, c.window)
	c.ms[kind][k] = append(c.ms[kind][k], msSince(t0))
}

// tailPercentileOf is the reference percentile that scales a class's
// tail.
func tailPercentileOf(kind refKind) int {
	if kind == refSeq || kind == refHTTP {
		return refP90
	}
	return refP50
}

// setupFactor times five refPar runs right after a set-up and returns
// the factor that scales that set-up's time to the reference speed.
func setupFactor() float64 {
	c := newRefClock(time.Second, nil)
	for i := 0; i < 5; i++ {
		c.run(refPar, 0)
	}
	return c.factors(refPar, refP50)[0]
}

// factors returns, per slice, the reference's nominal time at the given
// percentile (refP50 or refP90) over its time at that percentile in the
// slice (over the whole window for a slice without runs).
func (c *refClock) factors(kind refKind, pct int) [slices]float64 {
	var all []float64
	for _, xs := range c.ms[kind] {
		all = append(all, xs...)
	}
	var f [slices]float64
	for k, xs := range c.ms[kind] {
		if len(xs) == 0 {
			xs = all
		}
		f[k] = ratio(refNominalMS[kind][pct], percentile(xs, refPercentiles[pct]))
	}
	return f
}

// record returns each reference's median and p90 time per slice, in ms,
// for the run record.
func (c *refClock) record() map[string]any {
	out := map[string]any{}
	for kind, name := range refNames {
		var p50s, p90s []float64
		n := 0
		for _, xs := range c.ms[kind] {
			p50s = append(p50s, median(xs))
			p90s = append(p90s, percentile(xs, 90))
			n += len(xs)
		}
		if n > 0 {
			out[name] = map[string]any{"runs": n, "nominal_ms": refNominalMS[kind],
				"slice_p50_ms": p50s, "slice_p90_ms": p90s}
		}
	}
	return out
}

// echoClient sends refHTTP's round trips to an echo process.
type echoClient struct {
	proc *child
	base string
	cl   *http.Client
	body []byte
}

var echoAddrRE = regexp.MustCompile(`echo listening on (\S+)`)

// startEcho starts the benchmark binary as an echo process (see
// serveEcho) and warms its connection.
func startEcho(r *runner) (*echoClient, error) {
	c, addrs, err := startChild(r.bin("perfbench"), []string{"--echo"}, filepath.Join(r.work, "echo.log"),
		[]*regexp.Regexp{echoAddrRE}, 30*time.Second)
	if err != nil {
		return nil, err
	}
	body, _ := json.Marshal(map[string]any{"query": "S1(x,y1), S2(x,y2), S3(x,y3)", "database": "echo",
		"options": estimateOptions{Strategy: "auto", Seed: 1, Epsilon: epsilon, MaxProcs: 1}})
	e := &echoClient{proc: c, base: "http://" + addrs[0], cl: newClient(), body: body}
	for i := 0; i < 10; i++ {
		if err := e.roundTrip(refHTTP + refKind(i%2)); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// roundTrip sends one request for refHTTP's work (path /seq) or
// refHTTPPar's (/par).
func (e *echoClient) roundTrip(kind refKind) error {
	path := "/seq"
	if kind == refHTTPPar {
		path = "/par"
	}
	resp, err := e.cl.Post(e.base+path, "application/json", bytes.NewReader(e.body))
	if err != nil {
		return fmt.Errorf("echo: %w", err)
	}
	defer resp.Body.Close()
	var rep reply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("echo: status %d, %v", resp.StatusCode, err)
	}
	return nil
}

func (e *echoClient) close() {
	if e == nil {
		return
	}
	e.cl.CloseIdleConnections()
	e.proc.stop()
}

// serveEcho runs the echo process: an HTTP server on a free loopback
// port that, for each POST, decodes the JSON body, runs seqWork (path
// /seq) or parWork (/par) and answers with a small JSON reply. It runs until it is terminated, or
// exits when the benchmark process that started it is gone.
func serveEcho() int {
	parent := os.Getppid()
	go func() {
		for os.Getppid() == parent {
			time.Sleep(200 * time.Millisecond)
		}
		os.Exit(0)
	}()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench echo:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "echo listening on %s\n", l.Addr())
	h := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var body map[string]any
		data, err := io.ReadAll(req.Body)
		if err == nil {
			err = json.Unmarshal(data, &body)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var n uint64
		if req.URL.Path == "/par" {
			parWork(7)
		} else {
			n = seqWork()
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"probability": float64(n%2) / 2, "exact": true, "method": "echo"})
	})
	err = http.Serve(l, h)
	fmt.Fprintln(os.Stderr, "perfbench echo:", err)
	return 1
}
