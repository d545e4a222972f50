package itemset

// SubsetOf reports whether every item of s appears in t: the pairwise
// test maximalOnlyAllPairs, MaximalOnly's oracle, is written in. Both
// sets are sorted, so this is a linear merge.
func (s Set) SubsetOf(t Set) bool {
	if len(s) > len(t) {
		return false
	}
	j := 0
	for _, it := range s {
		for j < len(t) && t[j] < it {
			j++
		}
		if j >= len(t) || t[j] != it {
			return false
		}
		j++
	}
	return true
}

// Match reports whether transaction items contain itemset s: the
// per-row containment oracle the support tests are written in.
func Match(items *TxItems, s Set) bool { return txContains(items, s) }
