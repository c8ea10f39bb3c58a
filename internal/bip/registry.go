package bip

import (
	"fmt"
	"sort"

	"dpslog/internal/dp"
)

// factories maps registry names to solver constructors with default options.
var factories = map[string]func() Solver{
	"spe":          func() Solver { return SPE{} },
	"spe-violated": func() Solver { return SPEViolated{} },
	"branchbound":  func() Solver { return BranchBound{} },
	"feaspump":     func() Solver { return FeasPump{} },
	"rounding":     func() Solver { return Rounding{} },
	"greedy":       func() Solver { return Greedy{} },
}

// New returns the solver registered under name.
func New(name string) (Solver, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("bip: unknown solver %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names lists the registered solver names in sorted order.
func Names() []string {
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Exhaustive finds the true optimum by enumerating all 2^n selections. It is
// the test oracle for small instances and refuses n > 22.
func Exhaustive(c *dp.Constraints) (*Solution, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.NumPairs > 22 {
		return nil, fmt.Errorf("bip: exhaustive search refused for %d columns", c.NumPairs)
	}
	best := make([]bool, c.NumPairs)
	bestObj := 0
	y := make([]bool, c.NumPairs)
	for mask := uint64(0); mask < uint64(1)<<c.NumPairs; mask++ {
		obj := 0
		for j := 0; j < c.NumPairs; j++ {
			y[j] = mask&(1<<uint(j)) != 0
			if y[j] {
				obj++
			}
		}
		if obj <= bestObj {
			continue
		}
		if feasible(c, y) {
			bestObj = obj
			copy(best, y)
		}
	}
	return &Solution{Y: best, Objective: bestObj, Optimal: true}, nil
}
