package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/cooling"
	"repro/internal/drivecycle"
	"repro/internal/fleet"
	"repro/internal/hees"
	"repro/internal/sim"
	"repro/internal/vehicle"
	"repro/otem"
)

// sink keeps the probes' results alive so the compiler cannot drop the
// calls they time.
var sink float64

// timed runs fn, which makes n calls into one layer, inside a span and
// returns the nanoseconds per call.
func timed(tr *tracer, name string, n int, fn func()) float64 {
	id := tr.begin(name, -1)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tr.end(id)
	return float64(d.Nanoseconds()) / float64(n)
}

// runProbes times direct calls into the layers below the workloads, on
// inputs taken from the workloads, and fills their per-layer metrics.
func runProbes(cfg runConfig, tr *tracer, m map[string]float64) error {
	scale := cfg.size.probe

	// Operating points of a traced route: OTEM on US06 (a baseline in
	// smoke mode, which only needs the harness to run).
	method := otem.MethodologyOTEM
	if cfg.size.smoke {
		method = otem.MethodologyDual
	}
	traced, err := otem.RunContext(context.Background(), otem.RunSpec{Method: method, Cycle: "US06", Trace: true})
	if err != nil {
		return fmt.Errorf("probe route: %w", err)
	}
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		return err
	}
	pack := plant.HEES.Battery
	cell := &pack.Cell
	tc := traced.Trace
	n := len(tc.Time)
	cur := make([]float64, n)
	for k := range cur {
		cur[k] = tc.BatteryPower[k] / (cell.OCV(tc.SoC[k]) * float64(pack.Series)) / float64(pack.Parallel)
	}
	reps := 500 * scale
	m["battery.aging_rate_ns"] = timed(tr, "battery.AgingRate", reps*n, func() {
		for r := 0; r < reps; r++ {
			for k := range cur {
				sink += cell.AgingRate(cur[k], tc.BatteryTemp[k])
			}
		}
	})
	m["battery.resistance_ns"] = timed(tr, "battery.Resistance", reps*n, func() {
		for r := 0; r < reps; r++ {
			for k := range cur {
				sink += cell.Resistance(tc.SoC[k], tc.BatteryTemp[k])
			}
		}
	})
	m["battery.ocv_ns"] = timed(tr, "battery.OCV", reps*n, func() {
		for r := 0; r < reps; r++ {
			for k := range cur {
				sink += cell.OCV(tc.SoC[k])
			}
		}
	})
	ns, err := coolingProbe(tr, tc, reps)
	if err != nil {
		return err
	}
	m["cooling.step_ns"] = ns
	if m["hees.bus_solve_ns_per_lane"], err = busProbe(tr, 25*scale); err != nil {
		return err
	}

	routes := make([][]float64, 32*scale)
	m["drivecycle.synth_us_per_vehicle"] = timed(tr, "drivecycle.Synthesize", len(routes), func() {
		usages := []fleet.UsageClass{fleet.UsageCommuter, fleet.UsageDelivery, fleet.UsageHighway}
		for v := range routes {
			c, e := drivecycle.Synthesize(fleet.SynthConfigFor(usages[v%len(usages)], 600, cfg.seed*1000+int64(v)))
			if e != nil {
				err = e
				return
			}
			routes[v] = vehicle.MidSizeEV().PowerSeriesAt(c, 298)
		}
	}) / 1e3
	if err != nil {
		return fmt.Errorf("synthesize: %w", err)
	}
	if m["sim.batch_lane_steps_per_s"], err = batchProbe(tr, routes, 2*scale); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = math.Exp(rng.NormFloat64()) * 0.01
	}
	sk := fleet.NewSketch(256)
	m["fleet.sketch_add_ns"] = timed(tr, "fleet.Sketch.Add", 2*scale*len(vals), func() {
		for r := 0; r < 2*scale; r++ {
			for _, v := range vals {
				sk.Add(v)
			}
		}
	})
	sink += sk.Mean()
	return serveProbes(cfg, tr, m)
}

// coolingProbe steps the thermal loop with the traced route's battery
// heat, resetting it to the route's start temperature every pass.
func coolingProbe(tr *tracer, tc *otem.Trace, reps int) (float64, error) {
	loop, err := cooling.NewLoop(cooling.DefaultParams(), tc.BatteryTemp[0])
	if err != nil {
		return 0, err
	}
	return timed(tr, "cooling.Loop.StepActive", reps*len(tc.BatteryHeat), func() {
		for r := 0; r < reps; r++ {
			loop.BatteryTemp, loop.CoolantTemp = tc.BatteryTemp[0], tc.CoolantTemp[0]
			for _, q := range tc.BatteryHeat {
				res, _ := loop.StepActive(q, loop.CoolantTemp-2, 1)
				sink += res.CoolerPower
			}
		}
	}), nil
}

// busProbe solves the parallel bus for lanes taken from PrepareParallel
// states along UDDS, US06 and HWFET under the Parallel architecture.
func busProbe(tr *tracer, reps int) (float64, error) {
	plant, err := sim.NewPlant(sim.PlantConfig{})
	if err != nil {
		return 0, err
	}
	var series [][]float64
	var lanes int
	for _, name := range cyclesOTEM {
		req, err := otem.PowerSeries(name, 1)
		if err != nil {
			return 0, err
		}
		series = append(series, req)
		lanes += len(req)
	}
	// Ensure does not keep lanes already written when it grows, so the
	// scratch is sized once for every lane before any is filled.
	bb := hees.NewBusBatch(lanes)
	k := 0
	for _, req := range series {
		for _, p := range req {
			pre := plant.HEES.PrepareParallel()
			bb.VB[k], bb.RB[k], bb.VC[k], bb.RC[k], bb.P[k] = pre.Batt.VOC, pre.Batt.R, pre.VC, pre.RC, p
			if !(bb.VB[k] > 0 && bb.RB[k] > 0 && bb.VC[k] > 0 && bb.RC[k] > 0) {
				return 0, fmt.Errorf("bus probe lane %d: VB=%g RB=%g VC=%g RC=%g", k, bb.VB[k], bb.RB[k], bb.VC[k], bb.RC[k])
			}
			k++
			// An infeasible step leaves the state where it was, which is
			// still a valid lane for the next request.
			_, _ = plant.HEES.StepParallel(p, plant.DT)
		}
	}
	return timed(tr, "hees.BusBatch.Solve", reps*lanes, func() {
		for r := 0; r < reps; r++ {
			bb.Solve(lanes)
		}
		sink += bb.VL[0]
	}), nil
}

// batchProbe runs sim.RunBatch over 64 Parallel-baseline lanes on the
// synthesized routes, fresh plants each repetition, and returns lane
// steps per second of RunBatch time.
func batchProbe(tr *tracer, routes [][]float64, reps int) (float64, error) {
	const width = 64
	var sc sim.BatchScratch
	lanes := make([]sim.BatchVehicle, width)
	var steps int
	var busy time.Duration
	for r := 0; r < reps; r++ {
		for k := range lanes {
			p, err := sim.NewPlant(sim.PlantConfig{})
			if err != nil {
				return 0, err
			}
			ctrl, err := otem.ControllerFor(otem.MethodologyParallel)
			if err != nil {
				return 0, err
			}
			lanes[k] = sim.BatchVehicle{Plant: p, Ctrl: ctrl, Requests: routes[(r*width+k)%len(routes)]}
			steps += len(lanes[k].Requests)
		}
		id := tr.begin("sim.RunBatch", -1)
		t0 := time.Now()
		res, err := sim.RunBatch(context.Background(), lanes, sim.Config{Horizon: otem.DefaultConfig().Horizon}, &sc)
		busy += time.Since(t0)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		sink += res[0].QlossPct
	}
	return float64(steps) / busy.Seconds(), nil
}

// serveProbes times the calls behind a serve-mix miss directly, on the
// first specs of the serve-mix sequence: otem.RunContext on untraced
// misses, the server's encoding of traced results, otem.PlanRoute on plan
// specs and otem.Canonical cache keys.
func serveProbes(cfg runConfig, tr *tracer, m map[string]float64) error {
	scale := cfg.size.probe
	c := newServeClient(cfg.seed, 0, 1, "")
	var runMS, encMS, planMS []float64
	var keys []otem.RunSpec
	var buf bytes.Buffer
	for i := 0; i < 18*scale; i++ {
		trace := i%6 == 5
		sp := c.specs[c.addSim(trace)].run
		var res otem.Result
		d, err := timedCall(tr, "otem.RunContext", func() (err error) {
			res, err = otem.RunContext(context.Background(), sp)
			return err
		})
		if err != nil {
			return err
		}
		if !trace {
			keys = append(keys, sp)
			runMS = append(runMS, d)
			continue
		}
		buf.Reset()
		if d, err = timedCall(tr, "otem.EncodeResult", func() error {
			return encodeLikeServer(&buf, otem.EncodeResult(res))
		}); err != nil {
			return err
		}
		encMS = append(encMS, d)
	}
	for i := 0; i < 6*scale; i++ {
		sp := c.specs[c.addPlan()].plan
		d, err := timedCall(tr, "otem.PlanRoute", func() error {
			_, err := otem.PlanRoute(sp)
			return err
		})
		if err != nil {
			return err
		}
		planMS = append(planMS, d)
	}
	reps := 100 * scale
	m["canon.key_us"] = timed(tr, "otem.Canonical", reps*len(keys), func() {
		for r := 0; r < reps; r++ {
			for _, k := range keys {
				sink += float64(len(otem.Canonical(k)))
			}
		}
	}) / 1e3
	m["otem.run_ms_p50"] = median(runMS)
	m["otem.encode_ms_p50"] = median(encMS)
	m["hmpc.plan_ms_p50"] = median(planMS)
	return nil
}

// timedCall runs one call inside a span and returns its milliseconds.
func timedCall(tr *tracer, name string, fn func() error) (float64, error) {
	id := tr.begin(name, -1)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	tr.end(id)
	return ms(d), err
}
