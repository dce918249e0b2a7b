//go:build !amd64

package turbo

// Non-amd64 builds have no kernel support; every constituent pass runs on
// the scalar stepper (bit-identical outputs, see radix4.go).
const radix4HW = false

func inwardAVX2(alpha *int16, beta *int32, pairs *int16, k int, mid int, av *[8]int32, bv *[8]int32) {
	panic("turbo: inwardAVX2 without hardware support")
}

func outwardAVX2(alpha *int16, beta *int32, pairs *int16, le *int16, hard *byte, k int, mid int, av *[8]int32, bv *[8]int32) {
	panic("turbo: outwardAVX2 without hardware support")
}

func interleaveAVX2(pairs *int16, lsys *int16, la *int16, lpar *int16, k int) {
	panic("turbo: interleaveAVX2 without hardware support")
}
