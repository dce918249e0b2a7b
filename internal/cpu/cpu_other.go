//go:build !amd64

package cpu

// AVX2 is false off amd64: every kernel user falls back to its scalar path.
const AVX2 = false
