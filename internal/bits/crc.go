// Package bits implements the bit-level utilities of the LTE L1 chain:
// transport-block CRC attachment (CRC24A), code-block CRC (CRC24B), and
// bit-slice helpers.
//
// All CRC generators follow 3GPP TS 36.212 §5.1.1: cyclic generator
// polynomials applied to the bit sequence MSB-first with zero initial state
// and no final XOR. Payloads and parity are represented as one bit per byte
// (values 0/1), which is how the rest of the chain (turbo coder, scrambler,
// modulator) consumes them.
package bits

// Generator polynomials from TS 36.212 §5.1.1, written without the leading
// x^L term (the engine shifts it out implicitly).
const (
	// polyCRC24A = x^24 + x^23 + x^18 + x^17 + x^14 + x^11 + x^10 + x^7 +
	// x^6 + x^5 + x^4 + x^3 + x + 1
	polyCRC24A = 0x864CFB
	// polyCRC24B = x^24 + x^23 + x^6 + x^5 + x + 1
	polyCRC24B = 0x800063
)

// crcTables holds byte-at-a-time lookup tables for the two generators,
// built on first use. table[i] is the remainder of processing the 8 bits of
// i (MSB-first) through a zeroed register — CRC linearity over GF(2) makes
// the byte-wise update below produce exactly the bit-serial remainder.
var crcTables = map[uint32]*[256]uint32{
	polyCRC24A: buildCRCTable(polyCRC24A, 24),
	polyCRC24B: buildCRCTable(polyCRC24B, 24),
}

func buildCRCTable(poly uint32, width uint) *[256]uint32 {
	top := uint32(1) << (width - 1)
	mask := top | (top - 1)
	var tbl [256]uint32
	for i := 0; i < 256; i++ {
		reg := uint32(i) << (width - 8)
		for b := 0; b < 8; b++ {
			if reg&top != 0 {
				reg = (reg << 1) ^ poly
			} else {
				reg <<= 1
			}
			reg &= mask
		}
		tbl[i] = reg
	}
	return &tbl
}

// crcBits runs the generic MSB-first CRC over a 0/1-valued bit slice and
// returns the width-bit remainder. Bits are packed eight at a time through
// the lookup table; the sub-byte remainder falls back to the serial update.
func crcBits(data []byte, poly uint32, width uint) uint32 {
	var reg uint32
	top := uint32(1) << (width - 1)
	mask := top | (top - 1)
	tbl := crcTables[poly]
	i := 0
	for ; i+8 <= len(data); i += 8 {
		packed := uint32(data[i]&1)<<7 | uint32(data[i+1]&1)<<6 |
			uint32(data[i+2]&1)<<5 | uint32(data[i+3]&1)<<4 |
			uint32(data[i+4]&1)<<3 | uint32(data[i+5]&1)<<2 |
			uint32(data[i+6]&1)<<1 | uint32(data[i+7]&1)
		idx := byte(reg>>(width-8)) ^ byte(packed)
		reg = ((reg << 8) ^ tbl[idx]) & mask
	}
	for ; i < len(data); i++ {
		reg ^= uint32(data[i]&1) << (width - 1)
		if reg&top != 0 {
			reg = (reg << 1) ^ poly
		} else {
			reg <<= 1
		}
		reg &= mask
	}
	return reg
}

// CRC24A computes the 24-bit transport-block CRC of a 0/1 bit slice.
func CRC24A(data []byte) uint32 { return crcBits(data, polyCRC24A, 24) }

// CRC24B computes the 24-bit code-block CRC of a 0/1 bit slice.
func CRC24B(data []byte) uint32 { return crcBits(data, polyCRC24B, 24) }

// AppendCRC appends the width-bit value MSB-first to data as 0/1 bits and
// returns the extended slice.
func AppendCRC(data []byte, crc uint32, width uint) []byte {
	for i := int(width) - 1; i >= 0; i-- {
		data = append(data, byte((crc>>uint(i))&1))
	}
	return data
}

// CheckCRC24A verifies a bit sequence whose final 24 bits are a CRC24A over
// the preceding bits. It reports false for sequences shorter than 25 bits.
func CheckCRC24A(withCRC []byte) bool {
	if len(withCRC) <= 24 {
		return false
	}
	n := len(withCRC) - 24
	want := CRC24A(withCRC[:n])
	return extractCRC(withCRC[n:], 24) == want
}

// CheckCRC24B verifies a bit sequence whose final 24 bits are a CRC24B over
// the preceding bits.
func CheckCRC24B(withCRC []byte) bool {
	if len(withCRC) <= 24 {
		return false
	}
	n := len(withCRC) - 24
	want := CRC24B(withCRC[:n])
	return extractCRC(withCRC[n:], 24) == want
}

func extractCRC(tail []byte, width uint) uint32 {
	var v uint32
	for i := uint(0); i < width; i++ {
		v = v<<1 | uint32(tail[i]&1)
	}
	return v
}
