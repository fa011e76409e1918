package codec

// The unfused Burrows-Wheeler pipeline and the prefix-doubling suffix
// sorter, as production ran them before bwtForwardMTF/bwtInverseMTF fused
// the stages (PR 9) and SA-IS replaced the sorter. Nothing here ships:
// the functions are the oracle the production loops are checked against
// (TestSuffixArrayMatchesReference, TestFusedBWTMatchesUnfused,
// FuzzSuffixArray) and the stages reference_test.go's pre-pass BWT
// decoder is built from.

import "hcompress/internal/bufpool"

// refSuffixArray is the suffix sorter suffixArray replaced: Manber-Myers
// prefix doubling with radix sort, O(n log n). sa[j] is the start of the
// j-th smallest suffix, with shorter suffixes ordering before longer ones
// at equal prefixes (implicit smallest sentinel).
func refSuffixArray(src []byte) []int32 {
	n := len(src)
	sa := make([]int32, n)
	if n == 0 {
		return sa
	}
	rank := make([]int32, n)
	tmp := make([]int32, n)
	cnt := make([]int32, n+257)

	// Initial sort by first byte (counting sort).
	for i := range cnt[:257] {
		cnt[i] = 0
	}
	for _, b := range src {
		cnt[int(b)+1]++
	}
	for i := 1; i <= 256; i++ {
		cnt[i] += cnt[i-1]
	}
	for i := 0; i < n; i++ {
		sa[cnt[src[i]]] = int32(i)
		cnt[src[i]]++
	}
	rank[sa[0]] = 0
	for j := 1; j < n; j++ {
		rank[sa[j]] = rank[sa[j-1]]
		if src[sa[j]] != src[sa[j-1]] {
			rank[sa[j]]++
		}
	}

	key2 := func(i int32, k int) int32 {
		if int(i)+k < n {
			return rank[int(i)+k] + 1 // 0 reserved for "past end" (sentinel)
		}
		return 0
	}
	for k := 1; ; k <<= 1 {
		if int(rank[sa[n-1]]) == n-1 {
			break // all ranks distinct
		}
		// Radix sort by (rank[i], key2) — stable two-pass counting sort.
		// Pass 1: by secondary key.
		lim := n + 1
		for i := 0; i <= lim; i++ {
			cnt[i] = 0
		}
		for i := 0; i < n; i++ {
			cnt[key2(int32(i), k)+1]++
		}
		for i := 1; i <= lim; i++ {
			cnt[i] += cnt[i-1]
		}
		for j := 0; j < n; j++ { // iterate suffixes in index order; stability irrelevant for pass 1
			i := int32(j)
			tmp[cnt[key2(i, k)]] = i
			cnt[key2(i, k)]++
		}
		// Pass 2: by primary key, stable over pass 1 order.
		for i := 0; i <= lim; i++ {
			cnt[i] = 0
		}
		for i := 0; i < n; i++ {
			cnt[rank[i]+1]++
		}
		for i := 1; i < lim; i++ {
			cnt[i] += cnt[i-1]
		}
		for _, i := range tmp {
			sa[cnt[rank[i]]] = i
			cnt[rank[i]]++
		}
		// Re-rank.
		prevRank := rank[sa[0]]
		prevKey2 := key2(sa[0], k)
		tmp[sa[0]] = 0
		for j := 1; j < n; j++ {
			r, k2 := rank[sa[j]], key2(sa[j], k)
			tmp[sa[j]] = tmp[sa[j-1]]
			if r != prevRank || k2 != prevKey2 {
				tmp[sa[j]]++
			}
			prevRank, prevKey2 = r, k2
		}
		rank, tmp = tmp, rank
	}
	return sa
}

// bwtForward computes the Burrows-Wheeler transform of src with an
// implicit sentinel into s.BWT. It returns the n-byte transform and ptr,
// the row index (in the (n+1)-row conceptual matrix) at which the sentinel
// character was elided.
func bwtForward(s *bufpool.Scratch, src []byte) (bwt []byte, ptr int) {
	n := len(src)
	if n == 0 {
		return nil, 0
	}
	sa := refSuffixArray(src)
	bwt = bufpool.GrowBytes(&s.BWT, n)
	// Row 0 is the empty (sentinel) suffix; its L-column char is the last
	// byte of the text.
	bwt[0] = src[n-1]
	w := 1
	for j, pos := range sa {
		if pos == 0 {
			ptr = j + 1 // +1 for the implicit row 0
			continue
		}
		bwt[w] = src[pos-1]
		w++
	}
	return bwt, ptr
}

// bwtInverse reconstructs the original text from its transform and ptr,
// appending it to dst. The LF mapping lives in s.LF; bwt may alias any
// Scratch field other than LF and Dec.
func bwtInverse(s *bufpool.Scratch, dst, bwt []byte, ptr int) ([]byte, error) {
	n := len(bwt)
	if n == 0 {
		return dst, nil
	}
	if ptr <= 0 || ptr > n {
		return nil, errCorrupt
	}
	// C[c]: number of characters strictly smaller than c in the L column,
	// counting the sentinel (smallest) once.
	var count [256]int
	for _, b := range bwt {
		count[b]++
	}
	var c [256]int
	sum := 1 // the sentinel
	for v := 0; v < 256; v++ {
		c[v] = sum
		sum += count[v]
	}
	// lf[i]: the row whose suffix is (suffix of row i) prepended with L[i].
	lf := bufpool.GrowI32(&s.LF, n+1)
	var occ [256]int
	for i := 0; i <= n; i++ {
		if i == ptr {
			lf[i] = 0 // sentinel maps to row 0
			continue
		}
		j := i
		if i > ptr {
			j = i - 1
		}
		b := bwt[j]
		lf[i] = int32(c[b] + occ[b])
		occ[b]++
	}
	base := len(dst)
	dst = extendSlice(dst, n)
	out := dst[base:]
	row := 0 // row 0 = empty suffix; L[0] is the last text byte
	for k := n - 1; k >= 0; k-- {
		j := row
		if row == ptr {
			return nil, errCorrupt // sentinel reached early
		}
		if row > ptr {
			j = row - 1
		}
		out[k] = bwt[j]
		row = int(lf[row])
	}
	return dst, nil
}

// mtfEncode applies move-to-front coding in place.
func mtfEncode(buf []byte) {
	var order [256]byte
	for i := range order {
		order[i] = byte(i)
	}
	for k, b := range buf {
		var idx int
		for order[idx] != b {
			idx++
		}
		buf[k] = byte(idx)
		copy(order[1:idx+1], order[:idx])
		order[0] = b
	}
}

// mtfDecode inverts mtfEncode, also in place.
func mtfDecode(buf []byte) {
	var order [256]byte
	for i := range order {
		order[i] = byte(i)
	}
	for k, idx := range buf {
		b := order[idx]
		buf[k] = b
		copy(order[1:int(idx)+1], order[:idx])
		order[0] = b
	}
}
