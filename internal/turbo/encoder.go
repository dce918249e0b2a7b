package turbo

import "fmt"

// encodeWith turbo-encodes one code block of a valid size K using a prebuilt
// interleaver, producing the three output streams d0 (systematic), d1
// (parity 1) and d2 (parity 2), each of length K+4. The final four positions
// of each stream carry the multiplexed trellis-termination bits per
// TS 36.212 §5.1.3.2.2.
func encodeWith(block []byte, il *Interleaver) [][]byte {
	k := len(block)
	interleaved := il.Permute(block, nil)

	p1, x1, z1 := rscEncode(block)
	p2, x2, z2 := rscEncode(interleaved)

	d0 := make([]byte, k+4)
	d1 := make([]byte, k+4)
	d2 := make([]byte, k+4)
	copy(d0, block)
	copy(d1, p1)
	copy(d2, p2)

	// Termination multiplexing (x = systematic tail, z = parity tail;
	// unprimed from encoder 1, primed from encoder 2):
	//   d0: x_K,   z_{K+1}, x'_K,   z'_{K+1}
	//   d1: z_K,   x_{K+2}, z'_K,   x'_{K+2}
	//   d2: x_{K+1}, z_{K+2}, x'_{K+1}, z'_{K+2}
	d0[k], d0[k+1], d0[k+2], d0[k+3] = x1[0], z1[1], x2[0], z2[1]
	d1[k], d1[k+1], d1[k+2], d1[k+3] = z1[0], x1[2], z2[0], x2[2]
	d2[k], d2[k+1], d2[k+2], d2[k+3] = x1[1], z1[2], x2[1], z2[2]
	return [][]byte{d0, d1, d2}
}

// EncodeStreams is the allocating convenience wrapper used by the
// transmitter: it validates K and returns the three K+4 streams.
func EncodeStreams(block []byte) (streams [][]byte, err error) {
	il, err := NewInterleaver(len(block))
	if err != nil {
		return nil, err
	}
	return encodeWith(block, il), nil
}

func validateBlockLen(k int) error {
	if _, _, err := qppParams(k); err != nil {
		return fmt.Errorf("turbo: invalid block length %d", k)
	}
	return nil
}
