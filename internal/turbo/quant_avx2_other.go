//go:build !amd64

package turbo

// Non-amd64 builds have no fused-kernel support; every constituent pass runs
// on the scalar stepper (bit-identical outputs, see radix4.go).
const radix4HW = false

func forwardStepsAVX2(rows *int16, qg0 *int16, qg1 *int16, n int, av *[8]int32) {
	panic("turbo: forwardStepsAVX2 without hardware support")
}

func backwardLLRAVX2(rows *int16, qg0 *int16, qg1 *int16, n int, bv *[8]int32, le *int16, hard *byte) {
	panic("turbo: backwardLLRAVX2 without hardware support")
}
