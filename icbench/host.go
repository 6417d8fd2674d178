package main

import (
	"syscall"
	"time"
)

// peakRSSMiB is the peak resident set of this process so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memcopyGBps is the same-run host reference for the kernel numbers:
// the median rate of copying a 32 MiB buffer (bytes copied per second,
// each byte read once and written once).
func memcopyGBps() float64 {
	const size = 32 << 20
	src := make([]byte, size)
	dst := make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	rates := make([]float64, 7)
	for i := range rates {
		t0 := time.Now()
		copy(dst, src)
		rates[i] = size / time.Since(t0).Seconds() / 1e9
	}
	return median(rates)
}
