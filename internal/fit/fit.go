// Package fit identifies the battery-model coefficients of paper Eqs. 2–3
// from measurement data — the "empirically measured for each specific
// battery type" step the paper cites to datasheets. Given rest open-circuit
// voltage samples and pulse-resistance samples versus state of charge, it
// recovers:
//
//	Voc(z) = v₁·e^{v₂·z} + v₃·z⁴ + v₄·z³ + v₅·z² + v₆·z + v₇
//	R(z)   = r₁·e^{r₂·z} + r₃
//
// Each model is linear in all coefficients except the exponential rate
// (v₂ / r₂), so the fit is separable: a 1-D golden-section search over the
// rate with an inner linear least-squares solve (normal equations) for the
// remaining coefficients.
package fit

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/battery"
)

// ErrBadData is returned for empty or mismatched sample sets.
var ErrBadData = errors.New("fit: invalid sample data")

// OCVResult is a fitted open-circuit-voltage model.
type OCVResult struct {
	// V holds the Eq. 2 coefficients in the battery.CellParams layout.
	V [7]float64
	// RMSE is the root-mean-square voltage residual over the samples.
	RMSE float64
}

// Eval evaluates the fitted model at state of charge z.
func (r OCVResult) Eval(z float64) float64 {
	z2 := z * z
	return r.V[0]*math.Exp(r.V[1]*z) + r.V[2]*z2*z2 + r.V[3]*z2*z + r.V[4]*z2 + r.V[5]*z + r.V[6]
}

// OCV fits Eq. 2 to (z, voc) samples. At least 8 samples spanning the SoC
// range are required (7 coefficients).
func OCV(z, voc []float64) (OCVResult, error) {
	if len(z) != len(voc) || len(z) < 8 {
		return OCVResult{}, fmt.Errorf("%w: %d/%d OCV samples (need ≥8, matched)", ErrBadData, len(z), len(voc))
	}
	// Inner solve for a fixed exponential rate k.
	solve := func(k float64) (OCVResult, float64) {
		a := make([]float64, 0, 6*len(z))
		for _, zi := range z {
			z2 := zi * zi
			a = append(a, math.Exp(k*zi), z2*z2, z2*zi, z2, zi, 1)
		}
		coef, err := leastSquares(a, 6, voc)
		if err != nil {
			return OCVResult{}, math.Inf(1)
		}
		res := OCVResult{V: [7]float64{coef[0], k, coef[1], coef[2], coef[3], coef[4], coef[5]}}
		var sse float64
		for i, zi := range z {
			d := res.Eval(zi) - voc[i]
			sse += d * d
		}
		return res, sse
	}
	// Golden-section search over the (negative) exponential rate; the
	// Chen–Rincón-Mora family has k in roughly [−60, −5].
	k, _ := goldenMin(func(k float64) float64 {
		_, s := solve(k)
		return s
	}, -60, -5, 1e-3)
	best, bestSSE := solve(k)
	best.RMSE = math.Sqrt(bestSSE / float64(len(z)))
	return best, nil
}

// ResistanceResult is a fitted internal-resistance model.
type ResistanceResult struct {
	// R holds the Eq. 3 coefficients in the battery.CellParams layout.
	R [3]float64
	// RMSE is the root-mean-square resistance residual, ohms.
	RMSE float64
}

// Eval evaluates the fitted model at state of charge z.
func (r ResistanceResult) Eval(z float64) float64 {
	return r.R[0]*math.Exp(r.R[1]*z) + r.R[2]
}

// Resistance fits Eq. 3 to (z, resistance) samples (≥ 4 samples).
func Resistance(z, res []float64) (ResistanceResult, error) {
	if len(z) != len(res) || len(z) < 4 {
		return ResistanceResult{}, fmt.Errorf("%w: %d/%d resistance samples (need ≥4, matched)", ErrBadData, len(z), len(res))
	}
	solve := func(k float64) (ResistanceResult, float64) {
		a := make([]float64, 0, 2*len(z))
		for _, zi := range z {
			a = append(a, math.Exp(k*zi), 1)
		}
		coef, err := leastSquares(a, 2, res)
		if err != nil {
			return ResistanceResult{}, math.Inf(1)
		}
		out := ResistanceResult{R: [3]float64{coef[0], k, coef[1]}}
		var sse float64
		for i, zi := range z {
			d := out.Eval(zi) - res[i]
			sse += d * d
		}
		return out, sse
	}
	k, _ := goldenMin(func(k float64) float64 {
		_, s := solve(k)
		return s
	}, -60, -2, 1e-3)
	best, sse := solve(k)
	best.RMSE = math.Sqrt(sse / float64(len(z)))
	return best, nil
}

// IdentifyCell fits both models and folds them into a copy of base (other
// parameters — thermal, aging, limits — are not identifiable from these
// measurements and are kept).
func IdentifyCell(base battery.CellParams, z, voc, res []float64) (battery.CellParams, error) {
	ov, err := OCV(z, voc)
	if err != nil {
		return battery.CellParams{}, err
	}
	rv, err := Resistance(z, res)
	if err != nil {
		return battery.CellParams{}, err
	}
	out := base
	out.V = ov.V
	out.R = rv.R
	return out, out.Validate()
}

// goldenMin minimises a unimodal scalar function on [lo, hi] to the given
// tolerance via golden-section search, returning the argmin and minimum.
func goldenMin(f func(float64) float64, lo, hi, tol float64) (float64, float64) {
	const phi = 0.6180339887498949 // (√5−1)/2
	a, b := lo, hi
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = f(d)
		}
	}
	x := (a + b) / 2
	return x, f(x)
}
