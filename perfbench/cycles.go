package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/sim"
	"repro/otem"
)

// cyclesOTEM are the drive cycles of one cycles-otem pass.
var cyclesOTEM = []string{"UDDS", "US06", "HWFET"}

// route is one drive cycle's power-request series.
type route struct {
	name     string
	requests []float64
}

// timedOTEM wraps the OTEM controller's Decide to time each call. A call
// is a replan when the controller's replan counter advanced during it.
// Untraced, it records the CPU time of each replan: the caller is locked
// to its OS thread, so the thread's CPU clock times the call. Traced, it
// records a wall-clock span per call instead, and reads no CPU clock, so
// the clock's system calls stay out of the spans and of the simulation's
// self time.
type timedOTEM struct {
	*otem.OTEM
	tr      *tracer
	parent  int
	replans *[]float64 // replan CPU times, milliseconds
}

func (c *timedOTEM) Decide(p *sim.Plant, forecast []float64) sim.Action {
	before := c.Replans()
	if c.tr == nil {
		c0 := threadCPU()
		act := c.OTEM.Decide(p, forecast)
		if c.Replans() != before {
			*c.replans = append(*c.replans, 1e3*(threadCPU()-c0))
		}
		return act
	}
	t0 := time.Now()
	act := c.OTEM.Decide(p, forecast)
	t1 := time.Now()
	name := "core.hold"
	if c.Replans() != before {
		name = "core.replan"
	}
	c.tr.add(name, t0, t1, c.parent, -1)
	return act
}

// cyclesRun is what one measured window of cycles-otem produced.
type cyclesRun struct {
	passes, steps int
	slices        []slice
	first         []otem.Result // each route's first result, in route order
}

func runCycles(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var routes []route
	setup, err := timeSetups(cfg.size.setups, func() error {
		var err error
		routes, err = cyclesSetup(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		r := measureCycles(cfg, routes, cfg.window, nil, out)
		var qloss, energy float64
		for _, res := range r.first {
			qloss += res.QlossPct
			energy += res.HEESEnergyJ / 1e3
		}
		out.metrics["setup_s"] = setup
		out.metrics["work_per_s"], out.metrics["latency_p50_ms"], out.metrics["latency_p99_ms"] = summarize(r.slices)
		out.metrics["success_share"] = out.successShare()
		out.metrics["peak_rss_mb"] = peakRSSMB()
		out.metrics["qloss_pct"] = qloss
		out.metrics["energy_kj"] = energy
		return out, nil
	}

	plain := measureCycles(cfg, routes, cfg.window/2, nil, out)
	tr := newTracer()
	m0 := readMem()
	traced := measureCycles(cfg, routes, cfg.window/2, tr, out)
	mem := readMem().since(m0)
	st := tr.stats()
	m := out.metrics
	zeroLayers(m)
	replan, hold, sims := get(st, "core.replan"), get(st, "core.hold"), get(st, "otem.Simulate")
	m["core.replans"] = float64(replan.count) / float64(traced.passes)
	m["core.replan_ms_mean"] = replan.meanMS()
	m["core.replan_share"] = float64(replan.total) / float64(sims.total)
	m["core.hold_us_mean"] = 1e3 * hold.meanMS()
	m["core.new_us"] = 1e3 * get(st, "otem.New").meanMS()
	m["sim.plant_us_per_step"] = 1e3 * ms(sims.self) / float64(traced.steps)
	m["runtime.allocs_per_step"] = float64(mem.mallocs) / float64(traced.steps)
	m["runtime.gc_cycles"] = float64(mem.gcs)
	m["trace.overhead_pct"] = overheadPct(plain.slices, traced.slices)
	if err := runProbes(cfg, tr, m); err != nil {
		return nil, err
	}
	writeSummary(os.Stderr, tr.stats())
	return out, nil
}

// cyclesSetup builds the power-request series of the three cycles, in an
// order drawn from the seed, and warms up with one untimed US06 route
// under a fresh plant and controller.
func cyclesSetup(cfg runConfig) ([]route, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	var routes []route
	for _, i := range rng.Perm(len(cyclesOTEM)) {
		req, err := otem.PowerSeries(cyclesOTEM[i], 1)
		if err != nil {
			return nil, err
		}
		routes = append(routes, route{cyclesOTEM[i], truncate(req, cfg.size.cycleSteps)})
	}
	warm, err := otem.PowerSeries("US06", 1)
	if err != nil {
		return nil, err
	}
	plant, err := otem.NewPlant(otem.PlantConfig{})
	if err != nil {
		return nil, err
	}
	ctrl, err := otem.New(otem.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if _, err := otem.Simulate(plant, ctrl, truncate(warm, cfg.size.cycleSteps)); err != nil {
		return nil, fmt.Errorf("warm-up route: %w", err)
	}
	return routes, nil
}

func truncate(xs []float64, n int) []float64 {
	if n > 0 && n < len(xs) {
		return xs[:n]
	}
	return xs
}

// measureCycles drives whole slices of passes over the routes, each route
// under a fresh plant and controller, until the window has passed and at
// least minSlices slices ran. A slice's clock is the process's CPU time
// and its latencies are the CPU times of its replans:
// on a shared host, CPU time leaves out the time the hypervisor takes the
// vCPU away for, which wall time counts. Every result is checked, and
// every route must reproduce its first result bit for bit.
func measureCycles(cfg runConfig, routes []route, window time.Duration, tr *tracer, out *outcome) cyclesRun {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r := cyclesRun{first: make([]otem.Result, len(routes))}
	var replanMS []float64
	start := time.Now()
	for len(r.slices) < cfg.size.minSlices || time.Since(start) < window {
		t0, c0 := time.Now(), processCPU()
		steps := 0
		replanMS = replanMS[:0]
		for p := 0; p < cfg.size.passesPerSlice; p++ {
			for i, rt := range routes {
				out.attempted++
				res, err := cyclesRoute(rt, tr, &replanMS)
				if err != nil {
					out.failOp("%s route: %v", rt.name, err)
					continue
				}
				steps += res.Steps
				if p := checkResult(res, len(rt.requests)); p != "" {
					out.failOp("%s route: %s", rt.name, p)
					continue
				}
				if r.first[i].Steps == 0 {
					r.first[i] = res
				} else if res != r.first[i] {
					out.failOp("%s route: pass %d differs from the first", rt.name, r.passes)
				}
			}
			r.passes++
		}
		r.steps += steps
		r.slices = append(r.slices, slice{
			ops:  steps,
			wall: time.Since(t0).Seconds(),
			cpu:  processCPU() - c0,
			p50:  quantile(replanMS, 0.50),
			p99:  quantile(replanMS, 0.99),
		})
	}
	return r
}

// cyclesRoute is one timed route: a fresh plant and controller, then the
// simulation.
func cyclesRoute(rt route, tr *tracer, replanMS *[]float64) (otem.Result, error) {
	root := tr.begin("route", -1)
	defer tr.end(root)
	id := tr.begin("otem.NewPlant", root)
	plant, err := otem.NewPlant(otem.PlantConfig{})
	tr.end(id)
	if err != nil {
		return otem.Result{}, err
	}
	id = tr.begin("otem.New", root)
	ctrl, err := otem.New(otem.DefaultConfig())
	tr.end(id)
	if err != nil {
		return otem.Result{}, err
	}
	id = tr.begin("otem.Simulate", root)
	defer tr.end(id)
	return otem.Simulate(plant, &timedOTEM{OTEM: ctrl, tr: tr, parent: id, replans: replanMS}, rt.requests)
}

// checkResult returns "" when every field of a route result is finite and
// physically meaningful, else what is wrong.
func checkResult(r otem.Result, steps int) string {
	switch {
	case r.Steps != steps || r.DT <= 0:
		return fmt.Sprintf("steps %d (want %d), dt %g", r.Steps, steps, r.DT)
	case !finite(r.QlossPct, r.HEESEnergyJ, r.CoolingEnergyJ, r.AvgPowerW, r.MaxBatteryTemp,
		r.AvgBatteryTemp, r.ThermalViolationSec, r.FinalSoC, r.FinalSoE):
		return "non-finite field"
	case r.QlossPct <= 0 || r.QlossPct >= 100:
		return fmt.Sprintf("qloss %g%% out of range", r.QlossPct)
	case r.CoolingEnergyJ < 0 || r.CoolingEnergyJ > r.HEESEnergyJ+1e-9*math.Abs(r.HEESEnergyJ):
		return fmt.Sprintf("cooling energy %g J outside [0, HEES energy %g J]", r.CoolingEnergyJ, r.HEESEnergyJ)
	case r.AvgBatteryTemp < 200 || r.MaxBatteryTemp > 400 || r.AvgBatteryTemp > r.MaxBatteryTemp:
		return fmt.Sprintf("battery temperature avg %g K max %g K out of range", r.AvgBatteryTemp, r.MaxBatteryTemp)
	case r.ThermalViolationSec < 0 || r.ThermalViolationSec > float64(r.Steps)*r.DT:
		return fmt.Sprintf("thermal violation %g s out of range", r.ThermalViolationSec)
	case r.FallbackSteps < 0 || r.FallbackSteps > r.Steps:
		return fmt.Sprintf("fallback steps %d out of range", r.FallbackSteps)
	case r.FinalSoC < 0 || r.FinalSoC > 1 || r.FinalSoE < 0 || r.FinalSoE > 1:
		return fmt.Sprintf("final SoC %g / SoE %g out of [0, 1]", r.FinalSoC, r.FinalSoE)
	}
	return ""
}

// get returns the stats of a span name, empty when no such span exists.
func get(st map[string]*spanStats, name string) *spanStats {
	if s := st[name]; s != nil {
		return s
	}
	return &spanStats{}
}

// overheadPct is how much slower the traced window ran than the untraced
// one, percent of the untraced rate.
func overheadPct(plain, traced []slice) float64 {
	p, _, _ := summarize(plain)
	t, _, _ := summarize(traced)
	if p <= 0 {
		return 0
	}
	return 100 * (p - t) / p
}

// zeroLayers presets every per-layer metric to 0, the value of a layer
// the workload never calls; the workload and the probes overwrite the
// layers they measure.
func zeroLayers(m map[string]float64) {
	for _, d := range perLayer {
		m[d.name] = 0
	}
}
