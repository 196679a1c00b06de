// Package text provides the textual primitives of the spatial preference
// query using keywords: keyword sets, a dictionary that interns keyword
// strings to dense integer ids, the Jaccard similarity of Definition 1 and
// the best-possible-score upper bound of Equation 1.
//
// Keyword sets are represented as sorted slices of interned ids. Sorted-set
// representation makes intersection/union linear and allocation-free, which
// matters because w(f,q) is evaluated once per surviving feature object in
// the Map phase of every job.
package text

import (
	"sort"
	"strings"
	"sync"
)

// KeywordSet is a set of interned keyword ids, sorted ascending with no
// duplicates. The zero value is the empty set.
type KeywordSet []uint32

// NewKeywordSet builds a KeywordSet from arbitrary ids: it sorts and
// de-duplicates. The input slice is not retained.
func NewKeywordSet(ids ...uint32) KeywordSet {
	if len(ids) == 0 {
		return nil
	}
	s := make([]uint32, len(ids))
	copy(s, ids)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:1]
	for _, id := range s[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return KeywordSet(out)
}

// Len returns the number of keywords in the set (|W|).
func (s KeywordSet) Len() int { return len(s) }

// Contains reports whether id is a member of the set.
func (s KeywordSet) Contains(id uint32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}

// asymmetricCutoff selects the intersection strategy: when one set is
// this many times longer than the other, galloping lookups of the short
// set's members beat the linear merge. Queries carry a handful of
// keywords while corpus features carry dozens (the paper's UN/CL draw
// 10–100 per feature), so the Map phase — one intersection per feature
// per query — sits squarely in the asymmetric regime.
const asymmetricCutoff = 8

// IntersectionSize returns |s ∩ t|: by merging the two sorted slices, or
// by binary-searching the shorter set's members in the longer when the
// lengths are lopsided (O(min·log max) instead of O(min+max)).
func (s KeywordSet) IntersectionSize(t KeywordSet) int {
	if len(s) > len(t) {
		s, t = t, s
	}
	if len(t) >= len(s)*asymmetricCutoff {
		n := 0
		for _, id := range s {
			// Each searched id is larger than the last; shrink the search
			// window to the tail past the previous hit position. The search
			// is hand-rolled: this is the per-feature scoring inner loop of
			// the Map phase, and a sort.Search closure call per probe is
			// measurable there.
			lo, hi := 0, len(t)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if t[mid] < id {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo == len(t) {
				break
			}
			if t[lo] == id {
				n++
			}
			t = t[lo:]
		}
		return n
	}
	n, i, j := 0, 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Intersects reports whether s and t share at least one keyword. It is the
// Map-phase pruning test of Algorithm 1 line 9 (q.W ∩ f.W ≠ ∅) and short-
// circuits on the first common id. Lopsided lengths take the same
// binary-search path as IntersectionSize.
func (s KeywordSet) Intersects(t KeywordSet) bool {
	if len(s) > len(t) {
		s, t = t, s
	}
	if len(t) >= len(s)*asymmetricCutoff {
		for _, id := range s {
			lo, hi := 0, len(t)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if t[mid] < id {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo == len(t) {
				return false
			}
			if t[lo] == id {
				return true
			}
			t = t[lo:]
		}
		return false
	}
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// Equal reports whether the two sets contain exactly the same keywords.
func (s KeywordSet) Equal(t KeywordSet) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Union returns a new set containing every keyword of s and t.
func (s KeywordSet) Union(t KeywordSet) KeywordSet {
	out := make(KeywordSet, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Jaccard returns the Jaccard similarity |s ∩ t| / |s ∪ t| (Definition 1).
// The similarity of two empty sets is defined as 0, matching the paper's
// convention that a feature object with no relevant keywords has score 0.
func Jaccard(s, t KeywordSet) float64 {
	return JaccardOfCounts(s.IntersectionSize(t), len(s), len(t))
}

// JaccardOfCounts returns the Jaccard similarity of two sets of sLen and
// tLen members sharing inter of them. It is the one place the three counts
// become a score, so a score computed from stored counts is bit-identical
// to one computed from the sets.
func JaccardOfCounts(inter, sLen, tLen int) float64 {
	union := sLen + tLen - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// UpperBound returns the best possible Jaccard score w̄(f,q) of Equation 1
// for a feature keyword list of length featureLen against a query keyword
// list of length queryLen:
//
//	w̄ = 1                    if featureLen < queryLen
//	w̄ = queryLen/featureLen  if featureLen >= queryLen
//
// It is the early-termination bound of eSPQlen (Lemma 2): once feature
// objects are consumed in increasing keyword-list length, every unseen
// feature object f' has UpperBound(|f'.W|, |q.W|) <= the bound of the
// current one.
func UpperBound(featureLen, queryLen int) float64 {
	if queryLen <= 0 {
		return 0
	}
	if featureLen < queryLen {
		return 1
	}
	return float64(queryLen) / float64(featureLen)
}

// Dict interns keyword strings to dense uint32 ids. It is safe for
// concurrent use. The zero value is not usable; call NewDict.
type Dict struct {
	mu    sync.RWMutex
	ids   map[string]uint32
	words []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]uint32)}
}

// Intern returns the id of word, assigning the next dense id on first use.
func (d *Dict) Intern(word string) uint32 {
	d.mu.RLock()
	id, ok := d.ids[word]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[word]; ok {
		return id
	}
	id = uint32(len(d.words))
	d.ids[word] = id
	d.words = append(d.words, word)
	return id
}

// Lookup returns the id of word and whether it has been interned.
func (d *Dict) Lookup(word string) (uint32, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.ids[word]
	return id, ok
}

// Word returns the string for an interned id, or "" if the id is unknown.
func (d *Dict) Word(id uint32) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.words) {
		return ""
	}
	return d.words[id]
}

// Size returns the number of distinct words interned so far.
func (d *Dict) Size() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.words)
}

// InternAll interns every word and returns the resulting KeywordSet.
func (d *Dict) InternAll(words []string) KeywordSet {
	ids := make([]uint32, len(words))
	for i, w := range words {
		ids[i] = d.Intern(w)
	}
	return NewKeywordSet(ids...)
}

// LookupAll resolves every word that is already interned and returns the
// KeywordSet of the known ones. Unknown words are dropped: a query keyword
// that appears nowhere in the dictionary cannot match any feature object,
// so dropping it does not change any Jaccard intersection. Note that it
// does change the union size, so callers that need exact Jaccard values
// for queries with out-of-vocabulary terms should intern instead.
func (d *Dict) LookupAll(words []string) KeywordSet {
	ids := make([]uint32, 0, len(words))
	for _, w := range words {
		if id, ok := d.Lookup(w); ok {
			ids = append(ids, id)
		}
	}
	return NewKeywordSet(ids...)
}

// Words resolves a KeywordSet back to its strings, in id order.
func (d *Dict) Words(s KeywordSet) []string {
	out := make([]string, len(s))
	for i, id := range s {
		out[i] = d.Word(id)
	}
	return out
}

// Tokenize splits free text into lower-cased keyword tokens. Tokens are
// maximal runs of letters and digits; everything else is a separator. It is
// the normalization applied by the dataset loaders to textual annotations.
func Tokenize(s string) []string {
	var out []string
	start := -1
	flush := func(end int) {
		if start >= 0 {
			out = append(out, strings.ToLower(s[start:end]))
			start = -1
		}
	}
	for i, r := range s {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if alnum {
			if start < 0 {
				start = i
			}
			continue
		}
		flush(i)
	}
	flush(len(s))
	return out
}
