// Package cpu probes the host for the instruction-set extensions the
// assembly kernels in turbo and fft need. It is the one place in the tree
// that executes CPUID.
package cpu

// cpuSupportsAVX2 probes CPUID (including OS XSAVE state) for AVX2.
func cpuSupportsAVX2() bool

// AVX2 reports whether the AVX2 kernels may run on this host.
var AVX2 = cpuSupportsAVX2()
