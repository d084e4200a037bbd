package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/fleet"
	"repro/internal/runner"
	"repro/otem"
)

// fleetPin is one pinned fleet: its seed and the digest the simulator
// must reproduce for it (the fleet's bit-identity contract).
type fleetPin struct {
	seed   int64
	digest string
}

// fleetPins holds the pinned fleets per fleet size. Regenerate them with
// `perfbench --pins` (and `--pins --smoke`) only when a change is meant
// to move the simulator's results.
var fleetPins = map[int][]fleetPin{
	4096: {
		{1001, "5d3fc5037e02ac1f"},
		{1002, "2f8f3943dc6539f9"},
		{1003, "e41a088f90a3d5fc"},
		{1004, "55dd04d17e380153"},
		{1005, "c186d81729cf5dc7"},
		{1006, "0f2cd754f9e822d8"},
		{1007, "1abd40a01a91e5bd"},
		{1008, "6ec97d62e3c65124"},
		{1009, "105d127cff563354"},
		{1010, "b32c9c61dea406c1"},
		{1011, "5865ce2b969d8db4"},
		{1012, "19fc11a1636e1e12"},
		{1013, "f454f40f7d3d6e9e"},
		{1014, "75dc3790b295828f"},
		{1015, "9a2f1f1b3b7bd77d"},
		{1016, "8d56af5f56553bee"},
	},
	48: {
		{1001, "4c223b488c69de3b"},
		{1002, "9917a3e54f94e5de"},
		{1003, "9f62b5182400f150"},
		{1004, "406dfaa556718d17"},
		{1005, "1bfd5b006cdb4a86"},
		{1006, "69ad728db167fb90"},
		{1007, "48e7e3884a23cb88"},
		{1008, "51930e16e2915d21"},
		{1009, "9cc59134114adeb3"},
		{1010, "985d677ce2318e07"},
		{1011, "beb7fd07df332f65"},
		{1012, "1ecfd6f97f26dfbe"},
		{1013, "fcb0271aecb77032"},
		{1014, "cb6f3619ff9d77f7"},
		{1015, "02ad59648e649092"},
		{1016, "45382864191f4ea9"},
	},
}

// fleetSpec is the fleet-parallel workload's fleet: Parallel baseline,
// synthesized 600 s routes, one day.
func fleetSpec(vehicles int, seed int64) fleet.Spec {
	return fleet.Spec{
		Vehicles:     vehicles,
		Days:         1,
		Seed:         seed,
		Method:       otem.MethodologyParallel,
		RouteSeconds: 600,
	}
}

// printPins runs the pinned fleet seeds, 1001 to 1016, at the size's
// fleet size and prints their pin table for the current simulator.
func printPins(w io.Writer, sz sizes) error {
	fmt.Fprintf(w, "\t%d: {\n", sz.fleetVehicles)
	for s := int64(1001); s <= 1016; s++ {
		res, err := fleet.RunWith(context.Background(), fleetSpec(sz.fleetVehicles, s), fleet.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\t\t{%d, %q},\n", s, res.Digest())
	}
	fmt.Fprintln(w, "\t},")
	return nil
}

// fleetRun is what one measured window of fleet-parallel produced.
type fleetRun struct {
	runs, vehicles int
	steps          uint64
	slices         []slice   // one per fleet run
	qloss, energy  []float64 // per-vehicle means of the first qualityFleets runs
}

func runFleet(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	pins := fleetPins[cfg.size.fleetVehicles]
	if len(pins) == 0 {
		return nil, fmt.Errorf("no digest pins for %d-vehicle fleets", cfg.size.fleetVehicles)
	}
	var order []fleetPin
	var pool *runner.Pool
	setup, err := timeSetups(cfg.size.setups, func() error {
		rng := rand.New(rand.NewSource(cfg.seed))
		order = order[:0]
		for _, i := range rng.Perm(len(pins)) {
			order = append(order, pins[i])
		}
		pool = runner.New(runner.Workers(cfg.workers))
		_, err := fleet.RunWith(context.Background(), fleetSpec(cfg.size.fleetWarm, 999), fleet.Options{Pool: pool})
		return err
	})
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		r := measureFleet(cfg, order, pool, cfg.workers, cfg.window, max(cfg.size.minSlices, cfg.size.qualityFleets), nil, out)
		out.metrics["setup_s"] = setup
		out.metrics["work_per_s"], out.metrics["latency_p50_ms"], out.metrics["latency_p99_ms"] = summarize(r.slices)
		out.metrics["success_share"] = out.successShare()
		out.metrics["peak_rss_mb"] = peakRSSMB()
		out.metrics["qloss_pct"] = mean(r.qloss)
		out.metrics["energy_kj"] = mean(r.energy)
		return out, nil
	}

	plain := measureFleet(cfg, order, pool, cfg.workers, cfg.window/2, cfg.size.minSlices, nil, out)
	tr := newTracer()
	m0 := readMem()
	traced := measureFleet(cfg, order, pool, cfg.workers, cfg.window/2, cfg.size.minSlices, tr, out)
	mem := readMem().since(m0)
	m := out.metrics
	zeroLayers(m)
	m["runtime.allocs_per_step"] = float64(mem.mallocs) / float64(traced.steps)
	m["runtime.allocs_per_vehicle"] = float64(mem.mallocs) / float64(traced.vehicles)
	m["runtime.gc_cycles"] = float64(mem.gcs)
	m["trace.overhead_pct"] = overheadPct(plain.slices, traced.slices)

	// Fleets on a single worker give the serial rate the scaling
	// efficiency divides by. Both rates are in wall time here, so a
	// worker left idle shows as lost efficiency.
	single := measureFleet(cfg, order, runner.New(runner.Workers(1)), 1, 0, cfg.size.minSlices, tr, out)
	serialRate := wallRate(single.slices)
	m["fleet.serial_work_per_s"] = serialRate
	m["runner.scaling_efficiency"] = wallRate(plain.slices) / (float64(cfg.workers) * serialRate)
	if err := runProbes(cfg, tr, m); err != nil {
		return nil, err
	}
	writeSummary(os.Stderr, tr.stats())
	return out, nil
}

// measureFleet runs pinned fleets on a pool of workers, cycling through
// order, until the window has passed and at least minRuns fleets ran.
// Each result's digest must equal its pin. Runs are timed on the
// workerCPU clock. A vehicle's latency is the time on that clock from the
// RunWith call to the progress report that covers it.
func measureFleet(cfg runConfig, order []fleetPin, pool *runner.Pool, workers int, window time.Duration, minRuns int, tr *tracer, out *outcome) fleetRun {
	var r fleetRun
	start := time.Now()
	for r.runs < minRuns || time.Since(start) < window {
		pin := order[r.runs%len(order)]
		spec := fleetSpec(cfg.size.fleetVehicles, pin.seed)
		out.attempted++
		r.runs++
		var lat []weighted
		prev := 0
		id := tr.begin("fleet.RunWith", -1)
		t0, c0 := time.Now(), workerCPU(workers)
		// Progress calls are serialized and end before RunWith returns.
		res, err := fleet.RunWith(context.Background(), spec, fleet.Options{
			Pool: pool,
			Progress: func(done, _ int) {
				lat = append(lat, weighted{1e3 * (workerCPU(workers) - c0), float64(done - prev)})
				prev = done
			},
		})
		wall, cpu := time.Since(t0).Seconds(), workerCPU(workers)-c0
		tr.end(id)
		if err != nil {
			out.failOp("fleet seed %d: %v", pin.seed, err)
			continue
		}
		r.vehicles += res.Vehicles
		r.steps += res.Steps
		r.slices = append(r.slices, slice{
			ops:  res.Vehicles,
			wall: wall,
			cpu:  cpu,
			p50:  weightedQuantile(lat, 0.50),
			p99:  weightedQuantile(lat, 0.99),
		})
		if got := res.Digest(); got != pin.digest {
			out.failOp("fleet seed %d: digest %s, pinned %s", pin.seed, got, pin.digest)
			continue
		}
		q, e := res.Qloss.Mean(), res.EnergyJ.Mean()/1e3
		if res.Vehicles != spec.Vehicles || !finite(q, e) || q <= 0 || e <= 0 {
			out.failOp("fleet seed %d: %d vehicles, mean qloss %g%%, mean energy %g kJ", pin.seed, res.Vehicles, q, e)
			continue
		}
		if len(r.qloss) < cfg.size.qualityFleets {
			r.qloss = append(r.qloss, q)
			r.energy = append(r.energy, e)
		}
	}
	return r
}
