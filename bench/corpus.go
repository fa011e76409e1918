package main

import (
	"hash/crc32"

	"hcompress/internal/stats"
)

// dataClasses are the five (type, distribution) classes every workload
// writes. Five, not four: latency has one mode per class, and with an
// even count the median sat in the gap between two modes and jumped
// 9-13 % from seed to seed.
var dataClasses = []struct {
	typ  stats.DataType
	dist stats.Dist
}{
	{stats.TypeFloat, stats.Gamma},
	{stats.TypeInt, stats.Normal},
	{stats.TypeText, stats.Uniform},
	{stats.TypeBinary, stats.Exponential},
	{stats.TypeFloat, stats.Normal},
}

const (
	variantsPerClass = 8
	// contentsPerSize is how many distinct buffers exist per task size.
	contentsPerSize = 5 * variantsPerClass
)

// corpus is every input a run writes, generated from the seed before
// anything is timed. The n-th write of a stream carries corpus.at(n), a
// pure function of (seed, n), so the oracle never needs a second copy:
// the expected bytes of a key are the buffer its last write walked to.
type corpus struct {
	sizes []int
	bufs  [][]byte // [sizeIdx*contentsPerSize + content]
	sums  []uint32 // CRC of each buffer at generation, re-checked at exit
	// cycle is the period of at(): after this many writes the class and
	// size mix repeats exactly, so ratios taken over whole cycles do not
	// depend on how many operations a run completed.
	cycle int
}

func newCorpus(seed int64, sizes []int) *corpus {
	c := &corpus{sizes: sizes, cycle: lcm(len(sizes), contentsPerSize)}
	for si, size := range sizes {
		for content := 0; content < contentsPerSize; content++ {
			class, variant := content%len(dataClasses), content/len(dataClasses)
			dc := dataClasses[class]
			bseed := seed*1_000_003 + int64(si)*10_007 + int64(class)*101 + int64(variant)
			buf := stats.GenBuffer(dc.typ, dc.dist, size, bseed)
			c.bufs = append(c.bufs, buf)
			c.sums = append(c.sums, crc32.ChecksumIEEE(buf))
		}
	}
	return c
}

// at returns the buffer the n-th write of a stream carries: contents walk
// the class-major corpus in order while sizes cycle independently.
func (c *corpus) at(n int) []byte {
	return c.bufs[(n%len(c.sizes))*contentsPerSize+n%contentsPerSize]
}

// intact reports whether every buffer still has its generation-time
// checksum: the program is handed these buffers to read, and a write
// into one would silently corrupt the oracle.
func (c *corpus) intact() bool {
	for i, buf := range c.bufs {
		if crc32.ChecksumIEEE(buf) != c.sums[i] {
			return false
		}
	}
	return true
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }
