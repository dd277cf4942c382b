package pagecache

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// BenchmarkCache times one page through Write, IsDirty or Drop, walking an
// LPN span in order (seq) or in a fixed random permutation (rand). The
// cache holds half the span, filled in the walk's order before timing, so
// a write is an overwrite or a new page that reclaims the oldest, and a
// lookup hits about half the time. Drop refills the cache, untimed, each
// time the walk wraps.
func BenchmarkCache(b *testing.B) {
	ops := []struct {
		name string
		op   func(c *Cache, now time.Duration, lpn int64)
	}{
		{"write", func(c *Cache, now time.Duration, lpn int64) { c.Write(now, lpn, 1) }},
		{"isdirty", func(c *Cache, _ time.Duration, lpn int64) { c.IsDirty(lpn) }},
		{"drop", func(c *Cache, _ time.Duration, lpn int64) { c.Drop(lpn) }},
	}
	for _, op := range ops {
		for _, pattern := range []string{"seq", "rand"} {
			for _, size := range []struct {
				name string
				span int
			}{{"64K", 1 << 16}, {"1M", 1 << 20}} {
				span := size.span
				b.Run(fmt.Sprintf("%s/%s/%s", op.name, pattern, size.name), func(b *testing.B) {
					walk := make([]int64, span)
					for i := range walk {
						walk[i] = int64(i)
					}
					if pattern == "rand" {
						rng := rand.New(rand.NewSource(1))
						rng.Shuffle(span, func(i, j int) { walk[i], walk[j] = walk[j], walk[i] })
					}
					cfg := DefaultConfig()
					cfg.CapacityPages, cfg.FlushRatio = span/2, 1
					c, err := New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					now := time.Duration(0)
					fill := func() {
						for _, lpn := range walk {
							now += time.Microsecond
							c.Write(now, lpn, 1)
						}
					}
					fill()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if i%span == 0 && i > 0 && op.name == "drop" {
							b.StopTimer()
							fill()
							b.StartTimer()
						}
						now += time.Microsecond
						op.op(c, now, walk[i%span])
					}
				})
			}
		}
	}
}
