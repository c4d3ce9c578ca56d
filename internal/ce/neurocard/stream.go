package neurocard

import (
	"encoding/binary"
	"hash/fnv"
	"slices"

	"repro/internal/ce"
)

// SplitMix64 is the SplitMix64 generator (Steele, Lea and Flood, "Fast
// splittable pseudorandom number generators", OOPSLA 2014): a counter
// advanced by a fixed odd increment and passed through a bijective
// mixer, so each draw is a pure function of the seed and its index
// (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC
// 2011). Progressive sampling draws one stream per query from it.
type SplitMix64 uint64

// Uint64 returns the next 64 uniformly distributed bits.
func (g *SplitMix64) Uint64() uint64 {
	*g += 0x9e3779b97f4a7c15
	z := uint64(*g)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1) carrying 53 random bits.
func (g *SplitMix64) Float64() float64 { return float64(g.Uint64()>>11) / (1 << 53) }

// QueryStream returns the sampling stream of one query: SplitMix64 seeded
// with the model's seed plus the 64-bit FNV-1a hash of the query's
// canonical form — its table subset key, then each resolved bin range in
// ascending column order. An estimate is thereby a pure function of the
// model and the query: replicas, cold loads and any interleaving of
// concurrent estimates all answer alike.
func QueryStream(seed int64, tables []int, ranges map[int][2]int) SplitMix64 {
	h := fnv.New64a()
	h.Write([]byte(ce.SubsetKey(tables)))
	cols := make([]int, 0, len(ranges))
	for c := range ranges {
		cols = append(cols, c)
	}
	slices.Sort(cols)
	var buf [24]byte
	for _, c := range cols {
		r := ranges[c]
		binary.LittleEndian.PutUint64(buf[0:], uint64(c))
		binary.LittleEndian.PutUint64(buf[8:], uint64(r[0]))
		binary.LittleEndian.PutUint64(buf[16:], uint64(r[1]))
		h.Write(buf[:])
	}
	return SplitMix64(uint64(seed) + h.Sum64())
}
