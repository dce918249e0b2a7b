package turbo

import (
	"fmt"

	"rtopex/internal/bits"
)

// Segmentation implements code-block segmentation per TS 36.212 §5.1.2:
// a transport block (with its CRC24A already attached) larger than 6144 bits
// is split into C code blocks, each carrying its own CRC24B, with F filler
// bits prepended to the first block.
type Segmentation struct {
	B      int   // input length (TB + CRC24A)
	C      int   // number of code blocks
	F      int   // filler bits in block 0
	Sizes  []int // per-block K values (C entries)
	crcLen int   // 24 when C > 1, else 0
}

// Segment computes the segmentation of a B-bit input.
func Segment(b int) (*Segmentation, error) {
	const z = MaxBlockSize
	if b <= 0 {
		return nil, fmt.Errorf("turbo: cannot segment %d bits", b)
	}
	s := &Segmentation{B: b}
	var bPrime int
	if b <= z {
		s.C = 1
		bPrime = b
	} else {
		s.crcLen = 24
		s.C = (b + (z - 24) - 1) / (z - 24)
		bPrime = b + s.C*24
	}
	kPlus, err := NextBlockSize((bPrime + s.C - 1) / s.C)
	if err != nil {
		return nil, err
	}
	if s.C == 1 {
		s.Sizes = []int{kPlus}
		s.F = kPlus - bPrime
		return s, nil
	}
	kMinus := prevBlockSize(kPlus)
	var cMinus int
	if kMinus > 0 {
		deltaK := kPlus - kMinus
		cMinus = (s.C*kPlus - bPrime) / deltaK
	}
	cPlus := s.C - cMinus
	s.F = cPlus*kPlus + cMinus*kMinus - bPrime
	s.Sizes = make([]int, s.C)
	for i := 0; i < cMinus; i++ {
		s.Sizes[i] = kMinus
	}
	for i := cMinus; i < s.C; i++ {
		s.Sizes[i] = kPlus
	}
	return s, nil
}

func prevBlockSize(k int) int {
	prev := 0
	for _, e := range qppTable {
		if e.k >= k {
			break
		}
		prev = e.k
	}
	return prev
}

// Split partitions the input bit sequence (length B) into the code blocks,
// inserting F zero filler bits at the head of block 0 and appending CRC24B
// to every block when C > 1. Each returned block has length Sizes[i].
func (s *Segmentation) Split(in []byte) ([][]byte, error) {
	if len(in) != s.B {
		return nil, fmt.Errorf("turbo: Split input length %d, want %d", len(in), s.B)
	}
	out := make([][]byte, s.C)
	pos := 0
	for r := 0; r < s.C; r++ {
		k := s.Sizes[r]
		payload := k - s.crcLen
		blk := make([]byte, 0, k)
		if r == 0 {
			blk = append(blk, make([]byte, s.F)...) // filler zeros
			take := payload - s.F
			blk = append(blk, in[pos:pos+take]...)
			pos += take
		} else {
			blk = append(blk, in[pos:pos+payload]...)
			pos += payload
		}
		if s.crcLen > 0 {
			blk = bits.AppendCRC(blk, bits.CRC24B(blk), 24)
		}
		out[r] = blk
	}
	if pos != s.B {
		return nil, fmt.Errorf("turbo: Split consumed %d of %d bits", pos, s.B)
	}
	return out, nil
}

// JoinInto reassembles decoded code blocks into the original B-bit sequence
// in a caller-provided buffer of exactly B bytes, stripping fillers and
// per-block CRCs, and returns dst. It does not verify the CRCs — the decoder
// already used them for early termination; callers that need a trustworthy
// answer verify the transport-block CRC24A over the result.
func (s *Segmentation) JoinInto(dst []byte, blocks [][]byte) ([]byte, error) {
	if len(blocks) != s.C {
		return nil, fmt.Errorf("turbo: Join got %d blocks, want %d", len(blocks), s.C)
	}
	if len(dst) != s.B {
		return nil, fmt.Errorf("turbo: Join buffer length %d, want %d", len(dst), s.B)
	}
	pos := 0
	for r, blk := range blocks {
		if len(blk) != s.Sizes[r] {
			return nil, fmt.Errorf("turbo: block %d length %d, want %d", r, len(blk), s.Sizes[r])
		}
		payload := blk[:len(blk)-s.crcLen]
		if r == 0 {
			payload = payload[s.F:]
		}
		pos += copy(dst[pos:], payload)
	}
	return dst, nil
}

// PerBlockE computes the rate-matching output size E_r for each code block
// given the total number of codeword bits g (= data REs × modulation order)
// per TS 36.212 §5.1.4.1.2 with a single layer.
func PerBlockE(g, c, qm int) ([]int, error) {
	if c <= 0 || qm <= 0 || g <= 0 {
		return nil, fmt.Errorf("turbo: invalid PerBlockE(%d,%d,%d)", g, c, qm)
	}
	if g%qm != 0 {
		return nil, fmt.Errorf("turbo: G=%d not a multiple of Qm=%d", g, qm)
	}
	gPrime := g / qm
	gamma := gPrime % c
	es := make([]int, c)
	for r := 0; r < c; r++ {
		if r <= c-gamma-1 {
			es[r] = qm * (gPrime / c)
		} else {
			es[r] = qm * ((gPrime + c - 1) / c)
		}
	}
	return es, nil
}
