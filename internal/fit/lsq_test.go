package fit

import (
	"math"
	"math/rand"
	"testing"
)

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined consistent system: y = 2x + 1 sampled at 5 points.
	var a, b []float64
	for i := 0; i < 5; i++ {
		x := float64(i)
		a = append(a, x, 1)
		b = append(b, 2*x+1)
	}
	coef, err := leastSquares(a, 2, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef[0]-2) > 1e-9 || math.Abs(coef[1]-1) > 1e-9 {
		t.Errorf("coef = %v, want [2, 1]", coef)
	}
}

func TestLeastSquaresNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var a, b []float64
	for i := 0; i < 200; i++ {
		x := rng.Float64()*4 - 2
		a = append(a, x*x, x, 1)
		b = append(b, 0.5*x*x-1.5*x+3+0.01*rng.NormFloat64())
	}
	coef, err := leastSquares(a, 3, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, -1.5, 3}
	for i := range want {
		if math.Abs(coef[i]-want[i]) > 0.01 {
			t.Errorf("coef[%d] = %v, want %v", i, coef[i], want[i])
		}
	}
}

func TestLeastSquaresRankDeficientRegularised(t *testing.T) {
	// Two identical columns: the ridge fallback must return a finite answer
	// that still fits the data.
	var a, b []float64
	for i := 0; i < 4; i++ {
		x := float64(i + 1)
		a = append(a, x, x)
		b = append(b, 3*x)
	}
	coef, err := leastSquares(a, 2, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if pred := a[2*i]*coef[0] + a[2*i+1]*coef[1]; math.Abs(pred-b[i]) > 1e-3 {
			t.Errorf("rank-deficient fit residual %v at %d", pred-b[i], i)
		}
	}
}
