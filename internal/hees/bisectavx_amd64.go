package hees

// useAVX reports whether the lockstep bisection can use the AVX kernel:
// the CPU advertises AVX and the OS saves the ymm state. Checked once at
// init; package tests flip it to exercise the portable per-lane loop on
// AVX machines.
var useAVX = cpuHasAVX()

// bisect8AVX runs the bisection loop of the eight lanes in l to
// convergence (or the 200-iteration cap), updating l.lo and l.hi in
// place. It is the vector form of busBisect: two four-lane ymm groups, the
// gap evaluated with VSUBPD/VDIVPD/VADDPD in the scalar expression's
// association, the bracket chosen with VBLENDVPD, and converged lanes
// frozen out of further updates by an active-lane mask — IEEE-754
// arithmetic is deterministic, so each vector lane reproduces
// solveParallelBus bit for bit.
//
//go:noescape
func bisect8AVX(l *lanes8)

// cpuHasAVX reports CPUID OSXSAVE+AVX with ymm state enabled in XCR0.
func cpuHasAVX() bool
