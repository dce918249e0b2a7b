package modulation

import "rtopex/internal/cpu"

// kernelsHW reports hardware support for the AVX2 demappers. Split from
// kernelsEnabled so tests can force the scalar code.
var kernelsHW = cpu.AVX2

// Kernel bindings (demap_amd64.s). Each demaps 2·pairs symbols from x into
// dst under the constants in c (see demapConsts), multiplying every LLR by
// the matching sign entry when sign is not nil.

//go:noescape
func demapQPSKAVX2(dst, sign *float64, x *complex128, pairs int, c *demapConsts)

//go:noescape
func demap16AVX2(dst, sign *float64, x *complex128, pairs int, c *demapConsts)

//go:noescape
func demap64AVX2(dst, sign *float64, x *complex128, pairs int, c *demapConsts)

// quantizeAVX2 quantizes src[0:n] into dst[0:n] per QuantizeLLR (llrq_amd64.s);
// n is a multiple of 8.
//
//go:noescape
func quantizeAVX2(dst *int16, src *float64, n int)
