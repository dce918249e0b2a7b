package phy

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"rtopex/internal/channel"
)

// fnvFloats is FNV-1a over the little-endian math.Float64bits of v.
func fnvFloats(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	return h.Sum64()
}

// gridDigest hashes the receiver's post-FFT subcarrier grid, antenna by
// antenna, symbol by symbol, real part then imaginary part per subcarrier.
func gridDigest(rx *Receiver) uint64 {
	var flat []float64
	for _, ant := range rx.grid {
		for _, row := range ant {
			for _, v := range row {
				flat = append(flat, real(v), imag(v))
			}
		}
	}
	return fnvFloats(flat)
}

// TestFrontEndDigests pins the exact bits of the OFDM demodulator's output
// and of the codeword LLRs for one subframe per modulation order (64-QAM,
// QPSK, 16-QAM). The digests were computed on the scalar complex128 front
// end (the commits before the FFT and demod kernels landed), so any rounding
// difference anywhere between the transmitter's IFFT and the soft demapper —
// in either kernel setting — fails here.
func TestFrontEndDigests(t *testing.T) {
	cases := []struct {
		mcs, antennas int
		snrDB         float64
		grid, llrs    uint64
	}{
		{27, 2, 18, 0x9b682437932eee33, 0x3d2781cb55f28858},
		{5, 4, 4, 0xa9dac9f296176f0f, 0x481c5cbec0d25f9e},
		{16, 2, 12, 0x0ea18bb5eeebba87, 0x635033fde8b36a1f},
	}
	for _, c := range cases {
		cfg := testConfig(c.mcs, c.antennas)
		eachKernelPath(t, func(t *testing.T) {
			tx, err := NewTransmitter(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wave, err := tx.Transmit(randomPayload(t, tx, uint64(7000+c.mcs)))
			if err != nil {
				t.Fatal(err)
			}
			ch, err := channel.New(c.snrDB, c.antennas, uint64(7100+c.mcs))
			if err != nil {
				t.Fatal(err)
			}
			iq, _ := ch.Apply(wave)
			rx, err := NewReceiver(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rx.Process(iq, ch.N0()); err != nil {
				t.Fatal(err)
			}
			if g, l := gridDigest(rx), fnvFloats(rx.llrs); g != c.grid || l != c.llrs {
				t.Errorf("mcs=%d ant=%d: grid digest %#x llr digest %#x, pinned %#x %#x",
					c.mcs, c.antennas, g, l, c.grid, c.llrs)
			}
		})
	}
}

// TestDecodeDigest pins what the decode stage hands back — payload bits,
// the transport-block verdict, and every code block's CRC verdict and
// iteration count — over 16 consecutive MCS-27, 2-antenna, 15 dB subframes
// on one receiver, where every code block runs turbo iterations. The digest
// was captured before the constituent passes were rescheduled and the LLR
// quantizer got its kernel, and holds on both kernel paths.
func TestDecodeDigest(t *testing.T) {
	const pinned uint64 = 0xee26b31fbbbf3e58
	cfg := testConfig(27, 2)
	cfg.MaxIterations = 4
	tx, err := NewTransmitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := channel.New(15, cfg.Antennas, 7227)
	if err != nil {
		t.Fatal(err)
	}
	iqs := make([][][]complex128, 16)
	for i := range iqs {
		wave, err := tx.Transmit(randomPayload(t, tx, uint64(7200+i)))
		if err != nil {
			t.Fatal(err)
		}
		iqs[i], _ = ch.Apply(wave)
	}
	eachKernelPath(t, func(t *testing.T) {
		rx, err := NewReceiver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		iterations := 0
		for _, iq := range iqs {
			res, err := rx.Process(iq, ch.N0())
			if err != nil {
				t.Fatal(err)
			}
			h.Write(res.Payload)
			flags := []byte{boolByte(res.OK)}
			for r, it := range res.BlockIterations {
				flags = append(flags, boolByte(res.BlockOK[r]), byte(it))
				iterations += it
			}
			h.Write(flags)
		}
		if got := h.Sum64(); got != pinned {
			t.Errorf("decode digest %#x (%d block iterations), pinned %#x", got, iterations, pinned)
		}
	})
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
