package searchlog

// PreprocessStats reports what preprocessing removed.
type PreprocessStats struct {
	// RemovedPairs is the number of unique query-url pairs dropped
	// (Theorem 1, Condition 1: some user holds the pair's entire count).
	RemovedPairs int
	// RemovedUsers is the number of user logs left empty after pair removal.
	RemovedUsers int
	// RemovedMass is the count mass Σ c_ij of removed pairs.
	RemovedMass int
}

// IsUnique reports whether the pair violates Theorem 1's Condition 1:
// some user s_k holds the pair's entire input count (c_ijk = c_ij). This
// covers pairs appearing in only one user log, which is how the paper's
// evaluation phrases the removal.
func (p *Pair) IsUnique() bool {
	_, max := p.MaxEntry()
	return max == p.Total
}

// Preprocess returns the log with all unique query-url pairs removed, as
// required by Condition 1 of Theorem 1 before any of the utility-maximizing
// problems are formulated. Pairs with zero remaining count and users with no
// remaining pairs are dropped. The result keeps the input's pair and user
// order; from scratch it is the input's one-selection Split over the kept
// pairs and users, and when nothing is removed it is the input itself (a
// Log is immutable). The input log is not modified.
//
// A log built by Merge keeps its result (a prepared state, see carry.go):
// the first call builds it, carried from the parent version's when the
// parent handed one over, and later calls return it.
func Preprocess(l *Log) (*Log, PreprocessStats) {
	pre, st, _ := PreprocessCarried(l)
	return pre, st
}

// PreprocessCarried is Preprocess that also reports whether the result was
// carried forward from the parent version's preprocessed log rather than
// built from l's rows.
func PreprocessCarried(l *Log) (pre *Log, st PreprocessStats, carried bool) {
	if pre, st, carried, ok := l.preprocessed(); ok {
		return pre, st, carried
	}
	pre, st = preprocess(l)
	return pre, st, false
}

// preprocess is Preprocess from scratch.
func preprocess(l *Log) (*Log, PreprocessStats) {
	var st PreprocessStats
	drop := make([]bool, l.NumPairs())
	pairs := make([]int, 0, l.NumPairs())
	for i := range l.pairs {
		if l.pairs[i].IsUnique() {
			drop[i] = true
			st.RemovedPairs++
			st.RemovedMass += l.pairs[i].Total
			continue
		}
		pairs = append(pairs, i)
	}
	users := make([]int, 0, l.NumUsers())
	for k := range l.users {
		kept := false
		for _, up := range l.users[k].Pairs {
			if !drop[up.Pair] {
				kept = true
				break
			}
		}
		if kept {
			users = append(users, k)
		} else {
			st.RemovedUsers++
		}
	}
	if st.RemovedPairs == 0 && st.RemovedUsers == 0 {
		return l, st
	}
	return l.Split([]Selection{{Pairs: pairs, Users: users}})[0], st
}

// IsPreprocessed reports whether the log contains no unique pairs, i.e.
// whether Preprocess would be a no-op.
func IsPreprocessed(l *Log) bool {
	for i := range l.pairs {
		if l.pairs[i].IsUnique() {
			return false
		}
	}
	return true
}
