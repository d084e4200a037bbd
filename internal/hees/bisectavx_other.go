//go:build !amd64

package hees

// useAVX is always false off amd64: Solve bisects each lane with
// busBisect.
var useAVX = false

// bisect8AVX is unreachable when useAVX is false.
func bisect8AVX(l *lanes8) { panic("hees: bisect8AVX without AVX") }
