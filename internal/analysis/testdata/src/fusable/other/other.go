// Package other is not a release package: its bytes never reach a
// release, so fusable products are allowed.
package other

func Axpy(a, x, y float64) float64 {
	return a*x + y
}
