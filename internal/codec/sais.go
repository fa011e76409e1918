package codec

// Suffix sorting by induced sorting (SA-IS; Nong, Zhang and Chan, 2009):
// linear time whatever the input repeats, on int32, with no allocation
// of its own. The array is built in the caller's buffer, every level of
// the recursion works inside the part of that buffer the level above has
// no more use for, and the top level's buckets live on the stack.
//
// The text carries an implicit sentinel after its last byte that sorts
// below every byte, so of two suffixes where one is a prefix of the
// other the shorter comes first.
//
// Terms: suffix i is S-type when it sorts before suffix i+1 and L-type
// otherwise (the last suffix is L-type, the sentinel S-type). An LMS
// position is an S-type suffix whose left neighbour is L-type; the LMS
// substring at an LMS position runs to the next LMS position inclusive.
// Once the LMS suffixes are in order, one left-to-right pass places every
// L-type suffix from its right neighbour and one right-to-left pass every
// S-type suffix from its. The same two passes first put the LMS
// *substrings* in order, which names them; when two share a name the
// names form a text at most half as long whose suffix array, computed by
// recursion, is the order of the LMS suffixes. Text whose suffixes differ
// early skips the names: see sortLMSByComparison.

import "hcompress/internal/bufpool"

// suffixArray returns the suffix array of src in s.SA: sa[j] is the start
// of the j-th smallest suffix, with shorter suffixes ordering before longer
// ones at equal prefixes (implicit smallest sentinel).
func suffixArray(s *bufpool.Scratch, src []byte) []int32 {
	sa := bufpool.GrowI32(&s.SA, len(src))
	var buckets [2 * 256]int32
	sais(s, src, 256, sa, buckets[:])
	return sa
}

// sais writes the suffix array of text, whose characters lie in [0, k),
// to sa (len(sa) == len(text)). tmp is spare room for the k buckets; a
// level that finds neither tmp nor the free middle of sa large enough
// grows s.Bkt.
func sais[T byte | int32](s *bufpool.Scratch, text []T, k int, sa, tmp []int32) {
	n := len(text)
	if n < 2 {
		clear(sa)
		return
	}
	// With room for 2k the character counts are kept beside the bucket
	// pointers; with less they are recounted from the text each time the
	// pointers are reset.
	var freq, bucket []int32
	if len(tmp) >= 2*k {
		freq, bucket = tmp[:k], tmp[k:2*k]
		clear(freq)
		for _, c := range text {
			freq[c]++
		}
	} else {
		bucket = tmp[:k]
	}

	m := placeLMS(text, sa, freq, bucket)
	if m > 1 {
		sortLMSSubstrings(text, sa, freq, bucket)
		if !sortLMSByComparison(text, sa[:m]) {
			names := nameLMSSubstrings(text, sa, m)
			if names < m {
				// The kept counts are needed again below; the bucket
				// pointers are reset before every use and may be lent.
				sortLMSByRecursion(s, text, sa, tmp[len(freq):], m, names)
			}
		}
		spreadLMS(text, sa, freq, bucket, m)
	}
	induce(text, sa, freq, bucket)
}

// bucketStarts points bucket[c] at the first slot of character c's run in
// the suffix array; bucketEnds points it one past the last.
func bucketStarts[T byte | int32](text []T, freq, bucket []int32) {
	freq = charCounts(text, freq, bucket)
	sum := int32(0)
	for c, f := range freq {
		bucket[c] = sum
		sum += f
	}
}

func bucketEnds[T byte | int32](text []T, freq, bucket []int32) {
	freq = charCounts(text, freq, bucket)
	sum := int32(0)
	for c, f := range freq {
		sum += f
		bucket[c] = sum
	}
}

// charCounts returns the kept counts, or recounts into bucket (the two
// callers above read count c before they write pointer c).
func charCounts[T byte | int32](text []T, freq, bucket []int32) []int32 {
	if freq != nil {
		return freq
	}
	clear(bucket)
	for _, c := range text {
		bucket[c]++
	}
	return bucket
}

// placeLMS zeroes sa, drops every LMS position at the end of its
// character's bucket (in text order, which is no order yet) and returns
// how many there are.
func placeLMS[T byte | int32](text []T, sa, freq, bucket []int32) int {
	clear(sa)
	bucketEnds(text, freq, bucket)
	m := 0
	for j := range lmsPositions(text) {
		c := text[j]
		bucket[c]--
		sa[bucket[c]] = int32(j)
		m++
	}
	return m
}

// lmsPositions yields the LMS positions of text from right to left.
func lmsPositions[T byte | int32](text []T) func(yield func(int) bool) {
	return func(yield func(int) bool) {
		isS := false // the last suffix is L-type
		c1 := text[len(text)-1]
		for i := len(text) - 2; i >= 0; i-- {
			c0 := text[i]
			if c0 < c1 {
				isS = true
			} else if c0 > c1 && isS {
				isS = false
				if !yield(i + 1) {
					return
				}
			}
			c1 = c0
		}
	}
}

// sortLMSSubstrings turns placeLMS's output into the LMS positions in
// LMS-substring order, packed into sa[:m] with zeros after.
//
// Sign convention of both induction passes here and in induce: a slot
// holding j > 0 means "suffix j-1 is placed from this slot in the current
// pass", ^j means "in the other pass". 0 is an empty slot, or suffix 0,
// which places nothing.
func sortLMSSubstrings[T byte | int32](text []T, sa, freq, bucket []int32) {
	n := len(text)
	// L pass, left to right. Slots scanned and used are emptied; what
	// survives is the L-type suffixes with an S-type left neighbour.
	bucketStarts(text, freq, bucket)
	c := text[n-1] // the sentinel's left neighbour is L-type
	v := int32(n - 1)
	if text[n-2] < c {
		v = ^v
	}
	sa[bucket[c]] = v
	bucket[c]++
	for i := 0; i < n; i++ {
		j := sa[i]
		if j > 0 {
			sa[i] = 0
			j--
			c := text[j]
			sa[bucket[c]] = j ^ flipIf(leftOf(text, j) < c)
			bucket[c]++
		} else if j < 0 {
			sa[i] = ^j
		}
	}
	// S pass, right to left. An S-type suffix with an L-type left
	// neighbour is an LMS position: stored complemented, never scanned,
	// and all that survives.
	bucketEnds(text, freq, bucket)
	for i := n - 1; i >= 0; i-- {
		j := sa[i]
		if j > 0 {
			sa[i] = 0
			j--
			c := text[j]
			bucket[c]--
			sa[bucket[c]] = j ^ flipIf(leftOf(text, j) > c)
		}
	}
	m := 0
	for _, j := range sa {
		if j < 0 {
			sa[m] = ^j
			m++
		}
	}
	clear(sa[m:])
}

// sortLMSByComparison finishes the job sortLMSSubstrings started the cheap
// way when the text allows it: lms is in LMS-substring order, which is
// suffix order except among equal substrings, so an insertion sort on
// whole suffixes moves little, and where suffixes part after a few
// characters (anything close to noise) it costs a fraction of naming the
// substrings and recursing on the names. It gives up, reporting false
// with lms still in LMS-substring order, as soon as the characters it has
// compared exceed lmsCompareAllowance per suffix placed (and a small
// head start): text with long repeats fails within the first few
// suffixes, and no text costs more than that allowance before it does.
func sortLMSByComparison[T byte | int32](text []T, lms []int32) bool {
	budget := 256
	for i := 1; i < len(lms); i++ {
		budget += lmsCompareAllowance
		p := lms[i]
		b := text[p:]
		j := i
		for ; j > 0; j-- {
			q := lms[j-1]
			a := text[q:]
			l := min(len(a), len(b), budget)
			d := 0
			for d < l && a[d] == b[d] {
				d++
			}
			budget -= d + 1
			if budget < 0 {
				lms[j] = p
				return false
			}
			if d == len(a) || (d < len(b) && a[d] < b[d]) {
				break // suffix q < suffix p: p stays at j
			}
			lms[j] = q
		}
		lms[j] = p
	}
	return true
}

// lmsCompareAllowance is about what the other way costs per LMS suffix,
// in character comparisons: measured on the benchmark's classes at
// 4 KiB-1 MiB, 16 gives up on quantised floats that 24 sorts in 30 % less
// time than the recursion, and 32 starts to lose 256 KiB blocks of them
// late, which is the expensive way to fail.
const lmsCompareAllowance = 24

// nameLMSSubstrings numbers the LMS substrings 1, 2, … in sorted order,
// equal substrings alike, and returns the largest number. The name of the
// substring at position p is left in sa[m+p/2]: LMS positions are at least
// two apart, so the slots are distinct, and m <= n/2, so they fit.
func nameLMSSubstrings[T byte | int32](text []T, sa []int32, m int) int {
	// Lengths first, into the slots the names will take. The rightmost
	// LMS substring ends at the sentinel and equals no other: length 0.
	names := sa[m:]
	end := 0
	for j := range lmsPositions(text) {
		if end != 0 {
			names[j>>1] = int32(end - j + 1)
		}
		end = j
	}
	name := int32(0)
	var prev []T
	for _, p := range sa[:m] {
		l := int(names[p>>1])
		cur := text[p : int(p)+l]
		same := l != 0 && l == len(prev)
		for i := 0; same && i < l; i++ {
			same = cur[i] == prev[i]
		}
		if !same {
			name++
			prev = cur
		}
		names[p>>1] = name
	}
	return int(name)
}

// sortLMSByRecursion replaces sa[:m], the LMS positions in LMS-substring
// order, by the LMS positions in suffix order: the names nameLMSSubstrings
// left behind, read in text order, are a text of m characters in
// [0, names) whose suffixes sort as the LMS suffixes do.
func sortLMSByRecursion[T byte | int32](s *bufpool.Scratch, text []T, sa, tmp []int32, m, names int) {
	n := len(text)
	// The reduced text goes to the top of sa, its suffix array to the
	// bottom; the middle is free.
	w := n
	for i := n - 1; i >= m; i-- {
		if sa[i] != 0 {
			w--
			sa[w] = sa[i] - 1
		}
	}
	if free := sa[m : n-m]; len(free) > len(tmp) {
		tmp = free
	}
	if len(tmp) < names {
		tmp = bufpool.GrowI32(&s.Bkt, names)
	}
	sais(s, sa[n-m:], names, sa[:m], tmp)

	// Rank in the reduced text -> LMS position in this one.
	w = n
	for j := range lmsPositions(text) {
		w--
		sa[w] = int32(j)
	}
	pos := sa[n-m:]
	for i, r := range sa[:m] {
		sa[i] = pos[r]
	}
}

// spreadLMS moves the sorted LMS suffixes from sa[:m] to the ends of their
// buckets, keeping their order, and zeroes every other slot. Going right
// to left a suffix never lands below its own slot.
func spreadLMS[T byte | int32](text []T, sa, freq, bucket []int32, m int) {
	clear(sa[m:])
	bucketEnds(text, freq, bucket)
	for i := m - 1; i >= 0; i-- {
		j := sa[i]
		sa[i] = 0
		c := text[j]
		bucket[c]--
		sa[bucket[c]] = j
	}
}

// induce completes sa from the sorted LMS suffixes at their bucket ends
// (sign convention at sortLMSSubstrings; every slot ends non-negative).
func induce[T byte | int32](text []T, sa, freq, bucket []int32) {
	n := len(text)
	bucketStarts(text, freq, bucket)
	c := text[n-1]
	v := int32(n - 1)
	if text[n-2] < c {
		v = ^v
	}
	sa[bucket[c]] = v
	bucket[c]++
	for i := 0; i < n; i++ {
		j := sa[i]
		sa[i] = ^j
		if j > 0 {
			j--
			c := text[j]
			sa[bucket[c]] = j ^ flipIf(leftOf(text, j) < c)
			bucket[c]++
		}
	}
	bucketEnds(text, freq, bucket)
	for i := n - 1; i >= 0; i-- {
		j := sa[i]
		if j > 0 {
			j--
			c := text[j]
			bucket[c]--
			sa[bucket[c]] = j ^ flipIf(leftOf(text, j) > c)
		} else if j < 0 {
			sa[i] = ^j
		}
	}
}

// leftOf returns text[j-1], and text[0] for j == 0: suffix 0 has no left
// neighbour, and compared with itself it is neither smaller nor larger,
// which leaves it unmarked in every pass.
func leftOf[T byte | int32](text []T, j int32) T {
	return text[(j-1)&^((j-1)>>31)]
}

// flipIf returns -1 for true and 0 for false, so that x ^ flipIf(cond) is
// ^x or x without a branch the data would make unpredictable.
func flipIf(cond bool) int32 {
	var f int32
	if cond {
		f = -1
	}
	return f
}
