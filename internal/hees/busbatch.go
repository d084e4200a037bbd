package hees

// BusBatch is the worker-owned structure-of-arrays scratch for solving many
// independent parallel-bus balances in one call. A batched fleet rollout
// lays the per-lane solver inputs (V_b, R_b, V_c, R_c, P) out contiguously,
// then Solve brackets every lane and bisects the bracketed ones with no
// per-call setup, error wrapping or interface traffic — and, on warm
// scratch, no allocation. On amd64 with AVX the bisections run eight lanes
// at a time in the vector kernel; elsewhere each lane runs the scalar
// bisection of solveParallelBus.
//
// Usage: Ensure(n), fill VB/RB/VC/RC/P[:n], Solve(n), read VL/Feasible[:n].
// Like an optimize Workspace it is single-goroutine state: give each worker
// its own.
type BusBatch struct {
	// VB, RB, VC, RC, P are the per-lane solver inputs (Eqs. 10–13
	// notation; P is the bus load, discharge positive).
	VB, RB, VC, RC, P []float64
	// VL receives the solved bus voltage per lane.
	VL []float64
	// Feasible reports per lane whether the solve succeeded; false is the
	// batched form of ErrInfeasible and routes the lane to the battery
	// fallback, exactly like the scalar error path.
	Feasible []bool

	// lo, hi are the per-lane bisection brackets; act is the packed list
	// of lanes that bracketed successfully.
	lo, hi []float64
	act    []int
	// vec is the register-block handed to the AVX kernel on amd64.
	vec lanes8
}

// lanes8 is the contiguous eight-lane block the AVX bisection kernel
// operates on: the solver inputs followed by the live brackets, each field
// two four-lane ymm groups. The layout is mirrored by field offsets in
// bisectavx_amd64.s — do not reorder.
type lanes8 struct {
	vb, rb, vc, rc, p, lo, hi [8]float64
}

// NewBusBatch returns scratch sized for n lanes.
func NewBusBatch(n int) *BusBatch {
	bb := &BusBatch{}
	bb.Ensure(n)
	return bb
}

// Ensure makes the scratch hold at least n lanes. When it already does,
// nothing changes; when it must grow, every slice is reallocated zeroed
// and lane contents written earlier are dropped, so size the scratch for
// all lanes before filling any of them.
//
//lint:coldpath per-batch capacity growth; a warmed BusBatch returns at the cap check
func (bb *BusBatch) Ensure(n int) {
	if cap(bb.VB) >= n {
		return
	}
	bb.VB = make([]float64, n)
	bb.RB = make([]float64, n)
	bb.VC = make([]float64, n)
	bb.RC = make([]float64, n)
	bb.P = make([]float64, n)
	bb.VL = make([]float64, n)
	bb.Feasible = make([]bool, n)
	bb.lo = make([]float64, n)
	bb.hi = make([]float64, n)
	bb.act = make([]int, n)
}

// Solve runs the parallel-bus solve for lanes [0, n). Each lane's
// floating-point operation sequence is identical to solveParallelBus on
// the same inputs — the same bracket (busBracket), bisection updates,
// convergence test and returned midpoint, bit for bit.
//
//lint:hotpath the batched bus solve is the batched fleet rollout's inner loop; it must not allocate on warm scratch
func (bb *BusBatch) Solve(n int) {
	vb, rb, vc, rc, p := bb.VB, bb.RB, bb.VC, bb.RC, bb.P
	vl, lo, hi, act := bb.VL, bb.lo, bb.hi, bb.act

	// Bracket every lane and pack the ones that bracketed.
	na := 0
	for k := 0; k < n; k++ {
		l, h, ok := busBracket(vb[k], rb[k], vc[k], rc[k], p[k])
		bb.Feasible[k] = ok
		if !ok {
			vl[k] = 0
			continue
		}
		lo[k], hi[k] = l, h
		act[na] = k
		na++
	}

	if !useAVX {
		for _, k := range act[:na] {
			vl[k] = busBisect(vb[k], rb[k], vc[k], rc[k], p[k], lo[k], hi[k])
		}
		return
	}
	// AVX kernel: gather eight lanes into the contiguous register block,
	// run the vector bisection, and read the converged midpoints back.
	// IEEE determinism keeps every lane bit-identical to busBisect.
	l := &bb.vec
	for a := 0; a < na; a += 8 {
		m := na - a
		if m > 8 {
			m = 8
		} else if m < 8 {
			// Pad the final group with dummy lanes that converge on
			// their first iteration (lo == hi), so the remainder still
			// rides the vector kernel instead of a scalar tail.
			for j := m; j < 8; j++ {
				l.vb[j], l.rb[j], l.vc[j], l.rc[j] = 1, 1, 1, 1
				l.p[j], l.lo[j], l.hi[j] = 1, 1, 1
			}
		}
		for j := 0; j < m; j++ {
			k := act[a+j]
			l.vb[j], l.rb[j], l.vc[j], l.rc[j] = vb[k], rb[k], vc[k], rc[k]
			l.p[j], l.lo[j], l.hi[j] = p[k], lo[k], hi[k]
		}
		bisect8AVX(l)
		for j := 0; j < m; j++ {
			vl[act[a+j]] = (l.lo[j] + l.hi[j]) / 2
		}
	}
}
