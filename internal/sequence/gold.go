// Package sequence implements the length-31 Gold pseudo-random sequence of
// 3GPP TS 36.211 §7.2 and the PUSCH scrambling built on it.
//
// The generator is defined by two m-sequences:
//
//	x1(n+31) = (x1(n+3) + x1(n)) mod 2
//	x2(n+31) = (x2(n+3) + x2(n+2) + x2(n+1) + x2(n)) mod 2
//	c(n)     = (x1(n+Nc) + x2(n+Nc)) mod 2,  Nc = 1600
//
// with x1 initialized to the unit impulse and x2 to the binary expansion of
// the initialization value c_init.
package sequence

// Nc is the standard sequence warm-up offset.
const Nc = 1600

// Gold generates n bits of the Gold sequence c(0..n-1) for the given c_init.
// Output bits are 0/1 valued bytes.
func Gold(cInit uint32, n int) []byte {
	if n <= 0 {
		return nil
	}
	total := Nc + n + 31
	x1 := make([]byte, total)
	x2 := make([]byte, total)
	x1[0] = 1
	for i := 0; i < 31; i++ {
		x2[i] = byte((cInit >> uint(i)) & 1)
	}
	for i := 0; i+31 < total; i++ {
		x1[i+31] = (x1[i+3] + x1[i]) & 1
		x2[i+31] = (x2[i+3] + x2[i+2] + x2[i+1] + x2[i]) & 1
	}
	c := make([]byte, n)
	for i := 0; i < n; i++ {
		c[i] = (x1[i+Nc] + x2[i+Nc]) & 1
	}
	return c
}

// PUSCHInit computes c_init for PUSCH scrambling per TS 36.211 §5.3.1:
//
//	c_init = nRNTI·2^14 + q·2^13 + ⌊ns/2⌋·2^9 + N_cell_ID
//
// where ns is the slot number within the frame (two slots per subframe) and
// q is the codeword index (0 for single-codeword uplink).
func PUSCHInit(rnti uint16, q int, subframe int, cellID uint16) uint32 {
	ns := 2 * subframe
	return uint32(rnti)<<14 + uint32(q&1)<<13 + uint32(ns/2)<<9 + uint32(cellID)
}

// Scrambler applies (and removes — scrambling is an involution) the Gold
// scrambling sequence for one codeword.
type Scrambler struct {
	seq []byte
}

// NewScrambler precomputes n scrambling bits for c_init.
func NewScrambler(cInit uint32, n int) *Scrambler {
	return &Scrambler{seq: Gold(cInit, n)}
}

// Apply XORs the scrambling sequence into data in place and returns data.
// It panics if data is longer than the precomputed sequence.
func (s *Scrambler) Apply(data []byte) []byte {
	if len(data) > len(s.seq) {
		panic("sequence: scrambler sequence shorter than data")
	}
	for i := range data {
		data[i] = (data[i] ^ s.seq[i]) & 1
	}
	return data
}

// Bit returns scrambling bit i.
func (s *Scrambler) Bit(i int) byte { return s.seq[i] }
