// Package other sits outside the determinism scope: the same wall-clock
// read and maphash use that fire in internal/nn stay quiet here.
package other

import (
	"hash/maphash"
	"time"
)

func WallClock() int64 { return time.Now().UnixNano() }

func ProcessHash(key string) uint64 { return maphash.String(maphash.MakeSeed(), key) }
