package nn

import (
	"hash/fnv"
	"hash/maphash"
)

// maphashSeed keys a per-query seed on a per-process random seed: two
// replicas would sample different streams for the same query.
func maphashSeed(key string) uint64 {
	var h maphash.Hash // want "hash/maphash is seeded per process"
	h.WriteString(key)
	return h.Sum64()
}

func maphashString(key string, seed maphash.Seed) uint64 { // want "hash/maphash"
	return maphash.String(seed, key) // want "hash/maphash"
}

// fnvSeed hashes with a fixed function: clean.
func fnvSeed(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}
