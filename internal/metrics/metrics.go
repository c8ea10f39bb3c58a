// Package metrics implements the paper's evaluation measures: pair support
// and frequent-pair extraction (§5.2), Precision and Recall of frequent
// pairs (Equation 9), the sum/average of support distances (Equation 5,
// Figures 3(b)/3(c), Table 6), the retained-diversity percentage (Figure 4,
// Table 7) and the input/output triplet histogram difference ratio
// (Equation 10, Figure 6).
package metrics

import (
	"fmt"
	"math"

	"dpslog/internal/searchlog"
)

// Support is the relative frequency count/size; the support of pair (q,u)
// in log D is c_ij/|D|.
func Support(count, size int) float64 {
	if size == 0 {
		return 0
	}
	return float64(count) / float64(size)
}

// FrequentSet maps the frequent pairs of a log to their support.
type FrequentSet map[searchlog.PairKey]float64

// FrequentPairs extracts the pairs with support ≥ s from the log.
func FrequentPairs(l *searchlog.Log, s float64) FrequentSet {
	out := FrequentSet{}
	size := l.Size()
	for i := 0; i < l.NumPairs(); i++ {
		p := l.Pair(i)
		if sup := Support(p.Total, size); sup >= s {
			out[p.Key()] = sup
		}
	}
	return out
}

// PrecisionRecall computes Equation 9 between the input's frequent set S0
// and the output's frequent set S:
//
//	Precision = |S0 ∩ S| / |S|,  Recall = |S0 ∩ S| / |S0|.
//
// An empty S yields Precision 1 (no false positives were emitted); an empty
// S0 yields Recall 1.
func PrecisionRecall(s0, s FrequentSet) (precision, recall float64) {
	inter := 0
	for key := range s {
		if _, ok := s0[key]; ok {
			inter++
		}
	}
	precision, recall = 1, 1
	if len(s) > 0 {
		precision = float64(inter) / float64(len(s))
	}
	if len(s0) > 0 {
		recall = float64(inter) / float64(len(s0))
	}
	return precision, recall
}

// PlanPrecisionRecall evaluates Equation 9 on a plan of output counts over
// the log out: the output frequent set holds out's pairs whose share
// counts[i]/|O| of the plan total reaches s, and it is matched against the
// frequent pairs of the input log in by PairKey, so in and out may index
// pairs differently (a raw input and its preprocessed log). Sampling
// preserves pair totals exactly, so plan supports equal the supports of any
// sampled output.
func PlanPrecisionRecall(in, out *searchlog.Log, counts []int, s float64) (precision, recall float64) {
	outSize := 0
	for _, x := range counts {
		outSize += x
	}
	outFreq := FrequentSet{}
	for i, x := range counts {
		if x == 0 {
			continue
		}
		if sup := Support(x, outSize); sup >= s {
			outFreq[out.Pair(i).Key()] = sup
		}
	}
	return PrecisionRecall(FrequentPairs(in, s), outFreq)
}

// SupportDistances evaluates the F-UMP objective (Equation 5) for a plan of
// output counts: Σ over the input's frequent pairs of |x_ij/|O| − c_ij/|D||,
// with |O| the plan's total. It returns the sum, the average per frequent
// pair, and the number of frequent pairs. A zero-size plan measures each
// frequent pair's full input support.
func SupportDistances(in *searchlog.Log, counts []int, minSupport float64) (sum, avg float64, frequent int) {
	if len(counts) != in.NumPairs() {
		panic(fmt.Sprintf("metrics: %d counts for %d pairs", len(counts), in.NumPairs()))
	}
	outSize := 0
	for _, x := range counts {
		outSize += x
	}
	inSize := in.Size()
	for i := 0; i < in.NumPairs(); i++ {
		supIn := Support(in.Pair(i).Total, inSize)
		if supIn < minSupport {
			continue
		}
		frequent++
		sum += math.Abs(Support(counts[i], outSize) - supIn)
	}
	if frequent > 0 {
		avg = sum / float64(frequent)
	}
	return sum, avg, frequent
}

// RetainedDiversity is the Figure-4 measure: the fraction of the
// (preprocessed) input's distinct pairs that appear in the output with a
// positive count.
func RetainedDiversity(in *searchlog.Log, counts []int) float64 {
	if in.NumPairs() == 0 {
		return 0
	}
	kept := 0
	for _, x := range counts {
		if x > 0 {
			kept++
		}
	}
	return float64(kept) / float64(in.NumPairs())
}

// DiffRatio is Equation 10 for one triplet: the relative deviation of the
// output support of (q_i, u_j, s_k) from its input support,
// |x*_ijk/|O| − c_ijk/|D|| / (c_ijk/|D|).
func DiffRatio(xijk, outSize, cijk, inSize int) float64 {
	inSup := Support(cijk, inSize)
	if inSup == 0 {
		return math.Inf(1)
	}
	return math.Abs(Support(xijk, outSize)-inSup) / inSup
}

// TripletHistogram bins the DiffRatio of every input triplet whose pair is
// retained in the output (x_ij > 0) into `buckets` equal bins spanning
// [0, 100%]; ratios ≥ 1 land in the last bin, mirroring Figure 6's X axis.
// minSupport > 0 restricts to triplets of input-frequent pairs, matching the
// paper's remark that triplets of infrequent pairs can be ignored.
// minCount > 0 additionally restricts to triplets with c_ijk ≥ minCount —
// triplets below the release's resolution (c_ijk/|D| ≪ 1/|O|) are
// structurally pinned to the last bin and can be excluded with it.
func TripletHistogram(in, out *searchlog.Log, buckets int, minSupport float64, minCount int) []int {
	if buckets <= 0 {
		buckets = 10
	}
	hist := make([]int, buckets)
	inSize, outSize := in.Size(), out.Size()
	for i := 0; i < in.NumPairs(); i++ {
		p := in.Pair(i)
		oi := out.PairIndex(p.Key())
		if oi < 0 {
			continue // pair not retained
		}
		if minSupport > 0 && Support(p.Total, inSize) < minSupport {
			continue
		}
		for _, e := range p.Entries {
			if e.Count < minCount {
				continue
			}
			id := in.User(e.User).ID
			xijk := 0
			if ok := out.UserIndex(id); ok >= 0 {
				xijk = out.TripletCount(oi, ok)
			}
			r := DiffRatio(xijk, outSize, e.Count, inSize)
			bin := int(r * float64(buckets))
			if bin >= buckets {
				bin = buckets - 1
			}
			hist[bin]++
		}
	}
	return hist
}

// ConditionalTripletHistogram bins the *conditional* support deviation of
// every retained triplet: |x_ijk/x_ij − c_ijk/c_ij| / (c_ijk/c_ij), i.e. the
// user's share of the pair in the output versus the input. This is the
// scale-free counterpart of Equation 10: it isolates the multinomial
// sampler's shape-preservation property (§3.2) from the |O|/|D| scale
// mismatch, and is reported alongside the strict Equation-10 histogram in
// the Figure 6 reproduction (see EXPERIMENTS.md).
func ConditionalTripletHistogram(in, out *searchlog.Log, buckets int, minSupport float64, minCount int) []int {
	if buckets <= 0 {
		buckets = 10
	}
	hist := make([]int, buckets)
	inSize := in.Size()
	for i := 0; i < in.NumPairs(); i++ {
		p := in.Pair(i)
		oi := out.PairIndex(p.Key())
		if oi < 0 {
			continue
		}
		if minSupport > 0 && Support(p.Total, inSize) < minSupport {
			continue
		}
		xij := out.PairCount(oi)
		for _, e := range p.Entries {
			if e.Count < minCount {
				continue
			}
			id := in.User(e.User).ID
			xijk := 0
			if ok := out.UserIndex(id); ok >= 0 {
				xijk = out.TripletCount(oi, ok)
			}
			inShare := float64(e.Count) / float64(p.Total)
			outShare := 0.0
			if xij > 0 {
				outShare = float64(xijk) / float64(xij)
			}
			r := math.Abs(outShare-inShare) / inShare
			bin := int(r * float64(buckets))
			if bin >= buckets {
				bin = buckets - 1
			}
			hist[bin]++
		}
	}
	return hist
}

// HistogramShare converts a histogram to cumulative shares: share[i] is the
// fraction of triplets in bins 0..i. Used to assert Figure 6's headline
// ("the difference ratio of ~75–90% of triplets is below 40%").
func HistogramShare(hist []int) []float64 {
	total := 0
	for _, h := range hist {
		total += h
	}
	out := make([]float64, len(hist))
	cum := 0
	for i, h := range hist {
		cum += h
		if total > 0 {
			out[i] = float64(cum) / float64(total)
		}
	}
	return out
}
