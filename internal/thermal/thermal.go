// Package thermal implements the distributed battery-pack thermal network
// of paper Fig. 5: the cells are grouped into N modules along the coolant
// channel; fresh coolant enters at the inlet module and warms as it flows
// past each module, so the pack develops a temperature gradient the lumped
// two-node model (package cooling) cannot represent.
//
// The paper argues the lumped simplification "does not affect the concept";
// this package exists to check that claim (see the hotspot experiment): the
// controller is still driven by the lumped model, and the distributed model
// replays the same heat profile to report how much hotter the worst module
// runs.
//
// Dynamics per module i (0 = inlet):
//
//	C_b/N · dT_b,i/dt = h/N · (T_c,i − T_b,i) + q_i
//	C_c/N · dT_c,i/dt = h/N · (T_b,i − T_c,i) + W·(T_c,i−1 − T_c,i)
//
// with T_c,−1 the inlet temperature and W the coolant heat-capacity rate.
// Integration is backward Euler on the coupled 2N system, unconditionally
// stable. The system is block lower-triangular: module i's battery row
// couples only T_b,i and T_c,i, and its coolant row adds at most the
// upstream T_c,i−1. One inlet-to-outlet sweep of 2×2 eliminations therefore
// solves it exactly, in O(N) with no matrix. Every pivot is a sum of
// positive capacities and non-negative couplings (cooling.Params.Validate),
// so the sweep needs no pivoting and has no singular case.
package thermal

import (
	"errors"
	"fmt"

	"repro/internal/cooling"
)

// PackNetwork is a distributed N-module pack thermal model.
type PackNetwork struct {
	// Params supplies the total pack capacities and couplings, divided
	// evenly across the modules.
	Params cooling.Params
	// N is the module count along the coolant channel.
	N int
	// Tb and Tc are the module battery and coolant temperatures, kelvin,
	// index 0 at the coolant inlet.
	Tb, Tc []float64
}

// NewPackNetwork builds a network with all nodes at the initial temperature.
func NewPackNetwork(p cooling.Params, n int, initial float64) (*PackNetwork, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("thermal: module count %d invalid", n)
	}
	if initial <= 0 {
		return nil, errors.New("thermal: initial temperature must be > 0")
	}
	net := &PackNetwork{Params: p, N: n, Tb: make([]float64, n), Tc: make([]float64, n)}
	for i := 0; i < n; i++ {
		net.Tb[i] = initial
		net.Tc[i] = initial
	}
	return net, nil
}

// StepActive advances dt seconds with the pump running: coolant enters
// module 0 at tInlet and advects along the channel; the total battery heat
// qb (watts) is spread uniformly across modules.
func (net *PackNetwork) StepActive(qb, tInlet, dt float64) error {
	return net.step(qb, net.Params.FlowHeatRate, tInlet, dt, true)
}

// StepPassive advances dt seconds with the pump off: every coolant segment
// couples to ambient with its share of the natural-convection coefficient,
// and there is no advection between segments.
func (net *PackNetwork) StepPassive(qb, ambient, dt float64) error {
	return net.step(qb, net.Params.AmbientCoupling/float64(net.N), ambient, dt, false)
}

// step solves the backward-Euler system by one sweep from the inlet. Per
// module, with rb = cb·T_b + q the battery row's right-hand side, the
// battery row gives T_b+ = (rb + h·T_c+)/(cb + h); substituting it into the
// coolant row leaves one equation in T_c+:
//
//	(cc + w + h·cb/(cb+h))·T_c+ = cc·T_c + w·up + h·rb/(cb+h)
//
// where up is the temperature the coolant exchanges with through w. With
// advect=true, w is the advection rate and up is the inlet temperature for
// module 0 and the just-solved upstream segment after it; with
// advect=false, w couples every segment directly to tin (ambient).
func (net *PackNetwork) step(qb, w, tin, dt float64, advect bool) error {
	if dt <= 0 {
		return fmt.Errorf("thermal: non-positive dt %g", dt)
	}
	fN := float64(net.N)
	cb := net.Params.BatteryHeatCapacity / fN / dt
	cc := net.Params.CoolantHeatCapacity / fN / dt
	h := net.Params.HBC / fN
	q := qb / fN
	den := cc + w + h*cb/(cb+h)
	up := tin
	for i := range net.Tb {
		rb := cb*net.Tb[i] + q
		tc := (cc*net.Tc[i] + w*up + h*rb/(cb+h)) / den
		net.Tb[i] = (rb + h*tc) / (cb + h)
		net.Tc[i] = tc
		if advect {
			up = tc
		}
	}
	return nil
}

// MaxBatteryTemp returns the hottest module temperature.
func (net *PackNetwork) MaxBatteryTemp() float64 {
	m := net.Tb[0]
	for _, t := range net.Tb[1:] {
		if t > m {
			m = t
		}
	}
	return m
}

// MeanBatteryTemp returns the average module temperature (the quantity the
// lumped model tracks).
func (net *PackNetwork) MeanBatteryTemp() float64 {
	var s float64
	for _, t := range net.Tb {
		s += t
	}
	return s / float64(net.N)
}

// Gradient returns the spread between the hottest and coldest modules,
// kelvin — the quantity the lumped model hides.
func (net *PackNetwork) Gradient() float64 {
	lo, hi := net.Tb[0], net.Tb[0]
	for _, t := range net.Tb[1:] {
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	return hi - lo
}

// OutletTemp returns the coolant temperature leaving the pack (the T_o of
// paper Eq. 16).
func (net *PackNetwork) OutletTemp() float64 { return net.Tc[net.N-1] }
