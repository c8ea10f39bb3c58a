// Package lp stands in for a release package: every float sum or
// difference with an unconverted product operand is a finding, because
// arm64 may fuse it into one rounding; the float64(x*y) form, integer
// arithmetic, constant products and division are not.
package lp

type nz struct {
	row int32
	val float64
}

func flagged(x, y, z float64, xs []float64, e nz) (float64, float64) {
	a := x*y + z           // want `fusable float \+ of a product`
	b := z - x*y           // want `fusable float - of a product`
	c := (x * y) - z       // want `fusable float - of a product`
	d := z + -(x * y)      // want `fusable float \+ of a product`
	a += xs[e.row] * e.val // want `fusable float \+= of a product`
	b -= 2 * x             // want `fusable float -= of a product`
	t := 1 + 2*x           // want `fusable float \+ of a product`
	return a + b + c + d, t
}

type float float64

func named(x, y, z float) float {
	return x*y + z // want `fusable float \+ of a product`
}

func allowed(x, y, z float64, i, j, k int) (float64, int) {
	a := float64(x*y) + z
	a -= float64(x * y)
	a += x / y
	a *= x * y // a product alone is not a sum
	const half = 0.5
	b := half*2 + z // the product is a constant
	n := i*j + k    // integers never fuse
	var s float64
	s = x * y
	return a + b + s, n
}
