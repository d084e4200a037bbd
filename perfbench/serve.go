package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/otem"
)

// The serve-mix request sequence. Each client draws, per request: a
// repeat of one of its own last repeatWindow distinct specs (a cache
// hit), an untraced baseline /v1/simulate miss, a traced miss, or a
// /v1/plan miss on a synthesized route.
const (
	repeatShare  = 0.30
	missShare    = 0.50
	traceShare   = 0.10
	repeatWindow = 16
	// serveCacheSize is the server's LRU bound. A repeat names one of the
	// client's last repeatWindow specs, so it stays resident unless the
	// other clients insert ~1000 entries while this one sends 16 requests.
	serveCacheSize = 1024
)

var (
	serveMethods = []otem.Methodology{otem.MethodologyParallel, otem.MethodologyCooling, otem.MethodologyDual}
	planUsages   = []string{"commuter", "delivery", "highway"}
	// hashSeed keys the response-body hashes; references are hashed in the
	// same process.
	hashSeed = maphash.MakeSeed()
)

type reqKind uint8

const (
	kindMiss reqKind = iota
	kindTrace
	kindPlan
	kindHit
)

// kindSpan names a request's span by its class.
var kindSpan = [...]string{"serve.miss", "serve.trace", "serve.plan", "serve.hit"}

// serveSpec is one distinct request a client sends.
type serveSpec struct {
	kind reqKind // kindMiss, kindTrace or kindPlan: the class of its first request
	path string
	body []byte
	run  otem.RunSpec  // the simulate spec, for /v1/simulate
	plan otem.PlanSpec // the plan spec, for /v1/plan
}

// record is one completed request.
type record struct {
	spec    int // index into the client's specs
	kind    reqKind
	window  int
	latency time.Duration // send to last body byte
	end     time.Duration // completion, since the window started
	cpu     float64       // the workerCPU clock at completion
	status  int
	cache   string // X-Cache
	hash    uint64
	size    int64
	err     error
}

// serveClient is one closed-loop connection with its seeded sequence.
type serveClient struct {
	id, clients int
	base        string
	http        *http.Client
	rng         *rand.Rand
	specs       []serveSpec
	records     []record
	used        map[string]bool // canonical keys already drawn
	combos      []int           // pending method × cycle draws of the current block
	usages      []int           // pending usage-class draws of the current block
}

func newServeClient(seed int64, id, clients int, base string) *serveClient {
	return &serveClient{
		id:      id,
		clients: clients,
		base:    base,
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
		rng:  rand.New(rand.NewSource(seed*7919 + int64(id) + 1)),
		used: make(map[string]bool),
	}
}

// next draws the client's next request: a spec index and its class.
func (c *serveClient) next() (int, reqKind) {
	r := c.rng.Float64()
	if r < repeatShare && len(c.specs) > 0 {
		lo := max(0, len(c.specs)-repeatWindow)
		return lo + c.rng.Intn(len(c.specs)-lo), kindHit
	}
	switch {
	case r < repeatShare+missShare:
		return c.addSim(false), kindMiss
	case r < repeatShare+missShare+traceShare:
		return c.addSim(true), kindTrace
	default:
		return c.addPlan(), kindPlan
	}
}

// addSim draws a new baseline simulate spec. Methods and cycles come in
// shuffled blocks that hold every combination once; the bank size is a
// whole number of farads in [10, 40) kF whose residue modulo the client
// count is the client's id, so no two clients ever send the same spec.
func (c *serveClient) addSim(trace bool) int {
	cycles := otem.CycleNames()
	if len(c.combos) == 0 {
		c.combos = c.rng.Perm(len(serveMethods) * len(cycles))
	}
	k := c.combos[0]
	c.combos = c.combos[1:]
	kind := kindMiss
	if trace {
		kind = kindTrace
	}
	for {
		uf := float64(10000 + c.clients*c.rng.Intn(30000/c.clients) + c.id)
		spec := otem.RunSpec{Method: serveMethods[k%len(serveMethods)], Cycle: cycles[k/len(serveMethods)], Repeats: 1, UltracapF: uf, Trace: trace}
		if i, ok := c.addSpec(otem.Canonical(spec), kind, "/v1/simulate", serve.SimulateRequest{
			Method: string(spec.Method), Cycle: spec.Cycle, Repeats: 1, UltracapFarad: uf, Trace: trace,
		}); ok {
			c.specs[i].run = spec
			return i
		}
	}
}

// addPlan draws a new plan spec on a synthesized route: usage classes in
// shuffled blocks, a route seed whose residue is the client's id.
func (c *serveClient) addPlan() int {
	if len(c.usages) == 0 {
		c.usages = c.rng.Perm(len(planUsages))
	}
	u := planUsages[c.usages[0]]
	c.usages = c.usages[1:]
	for {
		seed := 1 + int64(c.clients)*c.rng.Int63n((1<<40)/int64(c.clients)) + int64(c.id)
		spec := otem.PlanSpec{Usage: u, Seed: seed}
		if i, ok := c.addSpec(otem.Canonical(spec), kindPlan, "/v1/plan", serve.PlanRequest{Usage: u, Seed: seed}); ok {
			c.specs[i].plan = spec
			return i
		}
	}
}

// addSpec appends a spec unless its canonical key was drawn before.
func (c *serveClient) addSpec(key string, kind reqKind, path string, req any) (int, bool) {
	if c.used[key] {
		return 0, false
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain request structs always encode
	}
	c.used[key] = true
	c.specs = append(c.specs, serveSpec{kind: kind, path: path, body: body})
	return len(c.specs) - 1, true
}

// post sends one request and reads the whole body into a hash.
func (c *serveClient) post(path string, body []byte) (rec record) {
	t0 := time.Now()
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	var h maphash.Hash
	h.SetSeed(hashSeed)
	rec.size, rec.err = io.Copy(&h, resp.Body)
	resp.Body.Close()
	rec.latency = time.Since(t0)
	rec.status = resp.StatusCode
	rec.cache = resp.Header.Get("X-Cache")
	rec.hash = h.Sum64()
	return rec
}

// serveEnv is one set-up: an in-process server on a loopback listener
// and its clients.
type serveEnv struct {
	cancel  context.CancelFunc
	done    chan error
	clients []*serveClient
}

// close stops the server, waits for its drain and drops the connections.
func (e *serveEnv) close() error {
	e.cancel()
	err := <-e.done
	for _, c := range e.clients {
		c.http.CloseIdleConnections()
	}
	return err
}

// serveSetup starts a server and connects the clients, then warms up:
// each client sends every method × cycle combination once, plus traced
// and plan requests, all on specs outside the measured sequence.
func serveSetup(cfg runConfig) (*serveEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{CacheSize: serveCacheSize, Log: log.New(os.Stderr, "otem-serve: ", 0)})
	ctx, cancel := context.WithCancel(context.Background())
	env := &serveEnv{cancel: cancel, done: make(chan error, 1)}
	go func() { env.done <- srv.Run(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	for id := 0; id < cfg.workers; id++ {
		env.clients = append(env.clients, newServeClient(cfg.seed, id, cfg.workers, base))
	}
	errs := make([]error, len(env.clients))
	var wg sync.WaitGroup
	for i, c := range env.clients {
		wg.Add(1)
		go func(i int, c *serveClient) {
			defer wg.Done()
			errs[i] = c.warmUp(cfg.size.serveWarm)
		}(i, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, errors.Join(err, env.close())
	}
	return env, nil
}

// warmUp sends n requests on specs the measured sequence never draws:
// bank sizes below 10 kF with a half farad, plan seeds above 2^41.
func (c *serveClient) warmUp(n int) error {
	cycles := otem.CycleNames()
	for i := 0; i < n; i++ {
		path, req := "/v1/simulate", any(serve.SimulateRequest{
			Method:        string(serveMethods[i%len(serveMethods)]),
			Cycle:         cycles[(i/len(serveMethods))%len(cycles)],
			UltracapFarad: 5000.5 + float64(i*c.clients+c.id),
			Trace:         i%8 == 7,
		})
		if i%8 == 3 {
			path, req = "/v1/plan", serve.PlanRequest{Usage: planUsages[i%len(planUsages)], Seed: 1<<41 + int64(i*c.clients+c.id)}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		if rec := c.post(path, body); rec.err != nil || rec.status != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d: %v", path, rec.status, rec.err)
		}
	}
	return nil
}

// measureServe runs every client closed-loop until the window has passed
// and at least minSlices slices of requests completed, and returns the
// window's slices. A slice is timed on the workerCPU clock, and the wall
// latencies of its requests are scaled by the slice's CPU-clock share of
// its wall time: the time the process was kept from its vCPUs is taken
// out of the slice's requests in equal proportion.
func measureServe(cfg runConfig, env *serveEnv, window time.Duration, w int, tr *tracer) []slice {
	var wg sync.WaitGroup
	var reqID atomic.Int64
	perClient := (cfg.size.minSlices*cfg.size.sliceRequests + len(env.clients) - 1) / len(env.clients)
	start, cpu0 := time.Now(), workerCPU(cfg.workers)
	for _, c := range env.clients {
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			for n := 0; n < perClient || time.Since(start) < window; n++ {
				i, kind := c.next()
				id := reqID.Add(1)
				t0 := time.Now()
				rec := c.post(c.specs[i].path, c.specs[i].body)
				tr.add(kindSpan[kind], t0, t0.Add(rec.latency), -1, id)
				rec.spec, rec.kind, rec.window, rec.end = i, kind, w, time.Since(start)
				rec.cpu = workerCPU(cfg.workers)
				c.records = append(c.records, rec)
			}
		}(c)
	}
	wg.Wait()

	// Slice the window's completions, in completion order, into runs of
	// sliceRequests; a trailing partial slice is dropped.
	var recs []*record
	for _, c := range env.clients {
		for i := range c.records {
			if c.records[i].window == w {
				recs = append(recs, &c.records[i])
			}
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].end < recs[j].end })
	n := cfg.size.sliceRequests
	var slices []slice
	var prev time.Duration
	prevCPU := cpu0
	for lo := 0; lo+n <= len(recs); lo += n {
		last := recs[lo+n-1]
		wall, cpu := (last.end - prev).Seconds(), last.cpu-prevCPU
		share := cpu / wall
		lat := make([]float64, n)
		for i, r := range recs[lo : lo+n] {
			lat[i] = share * ms(r.latency)
		}
		slices = append(slices, slice{
			ops:  n,
			wall: wall,
			cpu:  cpu,
			p50:  quantile(lat, 0.50),
			p99:  quantile(lat, 0.99),
		})
		prev, prevCPU = last.end, last.cpu
	}
	return slices
}

func runServe(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var envs []*serveEnv
	setup, err := timeSetups(cfg.size.setups, func() error {
		env, err := serveSetup(cfg)
		if err == nil {
			envs = append(envs, env)
		}
		return err
	})
	if err != nil {
		for _, e := range envs {
			err = errors.Join(err, e.close())
		}
		return nil, err
	}
	// Only the last set-up serves the measured load.
	env := envs[len(envs)-1]
	for _, e := range envs[:len(envs)-1] {
		if err := e.close(); err != nil {
			return nil, errors.Join(err, env.close())
		}
	}
	if !cfg.trace {
		slices := measureServe(cfg, env, cfg.window, 0, nil)
		q := verifyServe(cfg, env, out)
		if err := env.close(); err != nil {
			return nil, err
		}
		out.metrics["setup_s"] = setup
		out.metrics["work_per_s"], out.metrics["latency_p50_ms"], out.metrics["latency_p99_ms"] = summarize(slices)
		out.metrics["success_share"] = out.successShare()
		out.metrics["peak_rss_mb"] = peakRSSMB()
		out.metrics["qloss_pct"] = q.qloss
		out.metrics["energy_kj"] = q.energy
		return out, nil
	}

	plain := measureServe(cfg, env, cfg.window/2, 0, nil)
	tr := newTracer()
	m0 := readMem()
	traced := measureServe(cfg, env, cfg.window/2, 1, tr)
	mem := readMem().since(m0)
	q := verifyServe(cfg, env, out)
	if err := env.close(); err != nil {
		return nil, err
	}
	m := out.metrics
	zeroLayers(m)
	var n, hits, coalesced, rejected int
	var bytesOut int64
	for _, c := range env.clients {
		for _, r := range c.records {
			if r.window != 1 {
				continue
			}
			n++
			bytesOut += r.size
			switch {
			case r.status == http.StatusTooManyRequests:
				rejected++
			case r.cache == "hit":
				hits++
			case r.cache == "coalesced":
				coalesced++
			}
		}
	}
	st := tr.stats()
	m["serve.hit_share"] = float64(hits) / float64(n)
	m["serve.coalesced"] = float64(coalesced)
	m["serve.rejected"] = float64(rejected)
	m["serve.hit_ms_p50"] = quantile(get(st, "serve.hit").durations, 0.50)
	m["serve.miss_ms_p50"] = quantile(get(st, "serve.miss").durations, 0.50)
	m["serve.miss_ms_p90"] = quantile(get(st, "serve.miss").durations, 0.90)
	m["serve.trace_ms_p50"] = quantile(get(st, "serve.trace").durations, 0.50)
	m["serve.plan_ms_p50"] = quantile(get(st, "serve.plan").durations, 0.50)
	m["serve.response_mb"] = float64(bytesOut) / float64(n) / (1 << 20)
	m["runtime.alloc_mb_per_request"] = float64(mem.bytes) / float64(n) / (1 << 20)
	m["runtime.gc_cycles"] = float64(mem.gcs)
	m["trace.overhead_pct"] = overheadPct(plain, traced)
	m["serve.overhead_ms_p50"] = median(q.overheadMS)
	if err := runProbes(cfg, tr, m); err != nil {
		return nil, err
	}
	writeSummary(os.Stderr, tr.stats())
	return out, nil
}

// serveQuality is the mean Q_loss and HEES energy of the first
// qualitySpecs simulate specs of every client, as served, and the
// per-request serving overhead of the traced window's untraced misses:
// latency minus the direct run and encoding of the same spec.
type serveQuality struct {
	qloss, energy float64
	overheadMS    []float64
}

// reference is what a direct call in this process returns for a spec,
// and how long the call and the encoding took.
type reference struct {
	hash            uint64
	qloss, energyJ  float64
	runMS, encodeMS float64
	err             error
}

// verifyServe checks every request: status 200, the X-Cache outcome the
// sequence implies (first request of a spec a miss, every repeat a hit,
// nothing coalesced or rejected), and a body equal to a direct
// otem.RunContext or otem.PlanRoute of the same spec. The direct results
// must themselves be finite and physically meaningful.
func verifyServe(cfg runConfig, env *serveEnv, out *outcome) serveQuality {
	var q serveQuality
	var nq int
	for _, c := range env.clients {
		refs := c.references(cfg.workers)
		sims := 0
		for i, sp := range c.specs {
			if sp.kind != kindPlan && refs[i].err == nil && sims < cfg.size.qualitySpecs {
				sims++
				nq++
				q.qloss += refs[i].qloss
				q.energy += refs[i].energyJ / 1e3
			}
		}
		for _, r := range c.records {
			out.attempted++
			sp := &c.specs[r.spec]
			want := "miss"
			if r.kind == kindHit {
				want = "hit"
			}
			switch {
			case r.err != nil:
				out.failOp("client %d %s: %v", c.id, sp.path, r.err)
				continue
			case r.status != http.StatusOK:
				out.failOp("client %d %s %s: status %d", c.id, sp.path, sp.body, r.status)
				continue
			case r.cache != want:
				out.failOp("client %d %s %s: X-Cache %q, want %q", c.id, sp.path, sp.body, r.cache, want)
				continue
			case refs[r.spec].err != nil:
				out.failOp("client %d %s %s: direct call: %v", c.id, sp.path, sp.body, refs[r.spec].err)
				continue
			}
			if r.window == 1 && r.kind == kindMiss {
				q.overheadMS = append(q.overheadMS, ms(r.latency)-refs[r.spec].runMS-refs[r.spec].encodeMS)
			}
			// Every body, a repeat's too, must be the bytes of the
			// server's encoding of the direct call.
			if r.hash != refs[r.spec].hash {
				out.failOp("client %d %s %s: body differs from the direct call", c.id, sp.path, sp.body)
			}
		}
	}
	if nq > 0 {
		q.qloss /= float64(nq)
		q.energy /= float64(nq)
	}
	return q
}

// references computes every spec's direct result on the given number of
// goroutines.
func (c *serveClient) references(workers int) []reference {
	refs := make([]reference, len(c.specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := int(next.Add(1) - 1); i < len(refs); i = int(next.Add(1) - 1) {
				refs[i] = c.specs[i].reference(&buf)
			}
		}()
	}
	wg.Wait()
	return refs
}

// reference runs the spec directly and hashes its encoding as the server
// writes it.
func (sp *serveSpec) reference(buf *bytes.Buffer) reference {
	var ref reference
	var body any
	buf.Reset()
	t0 := time.Now()
	if sp.kind == kindPlan {
		p, err := otem.PlanRoute(sp.plan)
		if err != nil {
			return reference{err: err}
		}
		body = otem.EncodePlan(p)
	} else {
		res, err := otem.RunContext(context.Background(), sp.run)
		if err != nil {
			return reference{err: err}
		}
		if p := checkResult(res, res.Steps); p != "" {
			return reference{err: errors.New(p)}
		}
		ref.qloss, ref.energyJ = res.QlossPct, res.HEESEnergyJ
		body = otem.EncodeResult(res)
	}
	t1 := time.Now()
	ref.err = encodeLikeServer(buf, body)
	ref.runMS, ref.encodeMS = ms(t1.Sub(t0)), ms(time.Since(t1))
	ref.hash = maphash.Bytes(hashSeed, buf.Bytes())
	return ref
}

// encodeLikeServer writes v the way otem-serve writes a JSON body.
func encodeLikeServer(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
