package analysis

// All is the slvet suite in its fixed reporting order.
var All = []*Analyzer{
	BudgetArith,
	CtxFlow,
	DeferClose,
	Fusable,
	JSONBuild,
	LedgerOrder,
	RngDiscipline,
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}
