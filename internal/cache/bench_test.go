package cache

import (
	"testing"

	"shadowtlb/internal/arch"
)

// The benchmarks run the paper's 512 KB direct-mapped geometry. Hit
// benchmarks walk 1024 lines spread over 256 KB, so the working set is
// resident and every set index differs; the miss benchmark strides by
// the cache size, so every access maps to one set and replaces its line.

// hitLines fills the cache with n lines 256 bytes apart and returns
// their addresses.
func hitLines(c *Cache, n int) []arch.VAddr {
	addrs := make([]arch.VAddr, n)
	for i := range addrs {
		addrs[i] = arch.VAddr(uint64(i) * 256)
		c.Access(addrs[i], arch.PAddr(addrs[i]), arch.Read)
	}
	return addrs
}

func BenchmarkAccessHit(b *testing.B) {
	c := New(DefaultConfig())
	addrs := hitLines(c, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := addrs[i&1023]
		c.Access(va, arch.PAddr(va), arch.Read)
	}
}

func BenchmarkAccessMiss(b *testing.B) {
	c := New(DefaultConfig())
	size := DefaultConfig().Size
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := arch.VAddr(uint64(i&1023) * size)
		c.Access(va, arch.PAddr(va), arch.Write)
	}
}

func BenchmarkFastHit(b *testing.B) {
	c := New(DefaultConfig())
	addrs := hitLines(c, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := addrs[i&1023]
		c.FastHit(va, arch.PAddr(va), arch.Read)
	}
}
