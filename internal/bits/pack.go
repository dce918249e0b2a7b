package bits

// XORBits returns a ^ b elementwise over 0/1 slices. It panics if lengths
// differ, since a length mismatch in the chain is always a programming error.
func XORBits(a, b []byte) []byte {
	if len(a) != len(b) {
		panic("bits: XORBits length mismatch")
	}
	out := make([]byte, len(a))
	for i := range a {
		out[i] = (a[i] ^ b[i]) & 1
	}
	return out
}

// HammingDistance counts positions at which two 0/1 slices differ. It panics
// on length mismatch.
func HammingDistance(a, b []byte) int {
	if len(a) != len(b) {
		panic("bits: HammingDistance length mismatch")
	}
	d := 0
	for i := range a {
		if a[i]&1 != b[i]&1 {
			d++
		}
	}
	return d
}

// RandomBits fills dst with bits drawn from next, a function returning
// uniform uint64s (e.g. (*stats.RNG).Uint64). Keeping the dependency as a
// function avoids an import cycle and lets tests inject fixed patterns.
func RandomBits(dst []byte, next func() uint64) {
	var buf uint64
	var left uint
	for i := range dst {
		if left == 0 {
			buf = next()
			left = 64
		}
		dst[i] = byte(buf & 1)
		buf >>= 1
		left--
	}
}
