package thermal

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cooling"
	"repro/internal/units"
)

func newNet(t *testing.T, n int, temp float64) *PackNetwork {
	t.Helper()
	net, err := NewPackNetwork(cooling.DefaultParams(), n, temp)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewPackNetworkValidation(t *testing.T) {
	if _, err := NewPackNetwork(cooling.DefaultParams(), 0, 300); err == nil {
		t.Error("zero modules accepted")
	}
	if _, err := NewPackNetwork(cooling.DefaultParams(), 4, -1); err == nil {
		t.Error("negative temperature accepted")
	}
	bad := cooling.DefaultParams()
	bad.HBC = -1
	if _, err := NewPackNetwork(bad, 4, 300); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestSingleModuleMatchesLumpedLoop(t *testing.T) {
	// With N=1 the network solves the same two-node ODEs as cooling.Loop
	// (backward Euler vs Crank–Nicolson): trajectories must agree closely.
	net := newNet(t, 1, units.CToK(30))
	loop, err := cooling.NewLoop(cooling.DefaultParams(), units.CToK(30))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 900; i++ {
		if err := net.StepActive(1500, units.CToK(15), 1); err != nil {
			t.Fatal(err)
		}
		if _, err := loop.StepActive(1500, units.CToK(15), 1); err != nil {
			t.Fatal(err)
		}
	}
	if d := math.Abs(net.Tb[0] - loop.BatteryTemp); d > 0.2 {
		t.Errorf("N=1 network deviates from lumped loop by %.3f K", d)
	}
	if d := math.Abs(net.Tc[0] - loop.CoolantTemp); d > 0.2 {
		t.Errorf("coolant deviates by %.3f K", d)
	}
}

func TestGradientAlongChannel(t *testing.T) {
	// Under sustained heat with cold inlet coolant, the inlet module must
	// be the coolest and the outlet module the hottest.
	net := newNet(t, 8, units.CToK(30))
	for i := 0; i < 1800; i++ {
		if err := net.StepActive(2500, units.CToK(15), 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < net.N; i++ {
		if net.Tb[i] < net.Tb[i-1]-1e-9 {
			t.Fatalf("battery temps not monotone along channel: %v", net.Tb)
		}
		if net.Tc[i] < net.Tc[i-1]-1e-9 {
			t.Fatalf("coolant temps not monotone along channel: %v", net.Tc)
		}
	}
	if net.Gradient() <= 0.5 {
		t.Errorf("gradient %.3f K too small to be meaningful", net.Gradient())
	}
	if net.MaxBatteryTemp() != net.Tb[net.N-1] {
		t.Error("hottest module should be at the outlet")
	}
	if net.OutletTemp() != net.Tc[net.N-1] {
		t.Error("OutletTemp wrong node")
	}
}

func TestSteadyStateEnergyBalance(t *testing.T) {
	// At steady state, advected heat W·(T_out − T_in) equals the input.
	net := newNet(t, 6, units.CToK(30))
	qb := 1800.0
	tin := units.CToK(18)
	for i := 0; i < 30000; i++ {
		if err := net.StepActive(qb, tin, 1); err != nil {
			t.Fatal(err)
		}
	}
	advected := net.Params.FlowHeatRate * (net.OutletTemp() - tin)
	if math.Abs(advected-qb) > 0.02*qb {
		t.Errorf("steady-state advection %.1f W, want %.1f W", advected, qb)
	}
}

func TestMeanTracksLumped(t *testing.T) {
	// The mean of the distributed model should stay close to the lumped
	// model's single temperature under identical forcing.
	net := newNet(t, 12, units.CToK(25))
	loop, err := cooling.NewLoop(cooling.DefaultParams(), units.CToK(25))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i++ {
		q := 1000 + 800*math.Sin(float64(i)/50)
		if err := net.StepActive(q, units.CToK(18), 1); err != nil {
			t.Fatal(err)
		}
		if _, err := loop.StepActive(q, units.CToK(18), 1); err != nil {
			t.Fatal(err)
		}
	}
	// The distributed channel extracts heat at the (hotter) outlet
	// temperature, so it cools somewhat better than the lumped model that
	// advects at the average coolant temperature: the mean must track the
	// lumped temperature within a couple of kelvin, from below.
	d := net.MeanBatteryTemp() - loop.BatteryTemp
	if d > 0.5 || d < -3.0 {
		t.Errorf("mean deviates from lumped by %.2f K (want within [-3, 0.5])", d)
	}
	// But the hotspot exceeds the mean — the information the lumped model
	// loses.
	if net.MaxBatteryTemp() <= net.MeanBatteryTemp() {
		t.Error("no hotspot above mean")
	}
}

func TestPassiveRelaxesToAmbientUniformly(t *testing.T) {
	net := newNet(t, 5, units.CToK(45))
	ambient := units.CToK(25)
	for i := 0; i < 40000; i++ {
		if err := net.StepPassive(0, ambient, 2); err != nil {
			t.Fatal(err)
		}
	}
	for i, tb := range net.Tb {
		if math.Abs(tb-ambient) > 0.1 {
			t.Errorf("module %d did not relax to ambient: %.2f", i, units.KToC(tb))
		}
	}
	if net.Gradient() > 0.01 {
		t.Errorf("passive equilibrium should be uniform, gradient %.4f", net.Gradient())
	}
}

func TestStepRejectsBadDt(t *testing.T) {
	net := newNet(t, 3, 300)
	if err := net.StepActive(0, 290, 0); err == nil {
		t.Error("dt=0 accepted")
	}
	if err := net.StepPassive(0, 290, -5); err == nil {
		t.Error("dt<0 accepted")
	}
}

func TestBackwardEulerStableAtLargeSteps(t *testing.T) {
	net := newNet(t, 10, units.CToK(30))
	for i := 0; i < 50; i++ {
		if err := net.StepActive(5000, units.CToK(10), 120); err != nil {
			t.Fatal(err)
		}
		for _, tb := range net.Tb {
			if math.IsNaN(tb) || tb < 200 || tb > 400 {
				t.Fatalf("unstable at large dt: %v", net.Tb)
			}
		}
	}
}

// TestSweepSatisfiesBackwardEuler substitutes every step's result back
// into the 2N backward-Euler equations the sweep claims to solve exactly,
// over a randomized schedule of pump-mode flips, dt changes and varying
// heat and inlet/ambient temperatures, for a single module and a chain.
// Each equation's residual must vanish relative to the sum of its terms'
// magnitudes.
func TestSweepSatisfiesBackwardEuler(t *testing.T) {
	relResidual := func(terms ...float64) float64 {
		var sum, scale float64
		for _, x := range terms {
			sum += x
			scale += math.Abs(x)
		}
		return math.Abs(sum) / scale
	}
	dts := []float64{0.5, 1, 2, 120}
	for _, n := range []int{1, 6} {
		net := newNet(t, n, units.CToK(32))
		p, fN := net.Params, float64(n)
		rng := rand.New(rand.NewSource(7))
		for step := 0; step < 5000; step++ {
			qb := rng.Float64() * 4000
			dt := dts[rng.Intn(len(dts))]
			active := rng.Intn(3) != 0 // mostly pumped, with passive stretches
			tin := units.CToK(10 + rng.Float64()*25)
			oldTb := append([]float64(nil), net.Tb...)
			oldTc := append([]float64(nil), net.Tc...)
			advance, w := net.StepPassive, p.AmbientCoupling/fN
			if active {
				advance, w = net.StepActive, p.FlowHeatRate
			}
			if err := advance(qb, tin, dt); err != nil {
				t.Fatal(err)
			}
			cb, cc, h := p.BatteryHeatCapacity/fN/dt, p.CoolantHeatCapacity/fN/dt, p.HBC/fN
			for i, tb := range net.Tb {
				tc := net.Tc[i]
				// The coolant exchanges through w with the upstream
				// segment when advecting past the inlet, else with tin.
				up := tin
				if active && i > 0 {
					up = net.Tc[i-1]
				}
				// Battery row: (cb+h)·Tb+ − h·Tc+ = cb·Tb + q.
				rb := relResidual((cb+h)*tb, -h*tc, -cb*oldTb[i], -qb/fN)
				// Coolant row: (cc+h+w)·Tc+ − h·Tb+ − w·up = cc·Tc.
				rc := relResidual((cc+h+w)*tc, -h*tb, -w*up, -cc*oldTc[i])
				if rb > 1e-9 || rc > 1e-9 {
					t.Fatalf("N=%d step %d module %d (active=%v dt=%g): relative residuals %.3g, %.3g > 1e-9",
						n, step, i, active, dt, rb, rc)
				}
			}
		}
	}
}
