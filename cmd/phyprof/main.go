// Command phyprof profiles this repository's own Go PHY chain and fits the
// paper's linear processing-time model (Eq. 1) to the measurements — the
// measured-mode counterpart of Table 1. Absolute coefficients differ from
// the paper's SSE-optimized OAI build; the linear structure and fit quality
// are the reproduced claims.
//
// Usage:
//
//	phyprof [-trials 3] [-antennas 1,2] [-snrs 10,20,30] [-seed 1] [-mcs-step 3] [-workers 1]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"rtopex/internal/bits"
	"rtopex/internal/channel"
	"rtopex/internal/lte"
	"rtopex/internal/model"
	"rtopex/internal/phy"
	"rtopex/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "phyprof: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command behind main: it parses args, profiles the chain
// and prints the fit to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("phyprof", flag.ContinueOnError)
	var (
		trials  = fs.Int("trials", 3, "subframes per (MCS, SNR, N) cell")
		antList = fs.String("antennas", "1,2", "comma-separated antenna counts")
		snrList = fs.String("snrs", "10,20,30", "comma-separated SNRs (dB)")
		seed    = fs.Uint64("seed", 1, "random seed")
		mcsStep = fs.Int("mcs-step", 3, "MCS sweep step (1 = all 28)")
		workers = fs.Int("workers", 1, "subtask workers for the parallel fast path (≤1 = serial)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ants, err := parseInts(*antList)
	if err != nil {
		return err
	}
	snrs, err := parseFloats(*snrList)
	if err != nil {
		return err
	}

	r := stats.NewRNG(*seed)
	pool := phy.NewPool(max(*workers, 1))
	defer pool.Close()
	var obs []model.Observation
	fmt.Fprintln(out, "profiling Go PHY (this runs the full turbo decoder; expect minutes at scale)...")
	for _, n := range ants {
		for mcs := 0; mcs <= lte.MaxMCS; mcs += *mcsStep {
			// One receiver per (antennas, MCS) cell, reused across its
			// SNRs and trials so they run on warmed scratch.
			cfg := phy.Config{
				Bandwidth: lte.BW10MHz,
				MCS:       mcs,
				Antennas:  n,
				RNTI:      0x2002,
				CellID:    11,
			}
			rx, err := phy.NewReceiver(cfg)
			if err != nil {
				return err
			}
			for _, snr := range snrs {
				for trial := 0; trial < *trials; trial++ {
					o, err := measureOne(r, rx, cfg, pool, snr)
					if err != nil {
						return err
					}
					obs = append(obs, o)
				}
			}
		}
	}

	params, r2, err := model.Fit(obs)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nmeasurements: %d\n", len(obs))
	fmt.Fprintf(out, "%-18s %8s %8s %8s %8s %8s\n", "source", "w0", "w1", "w2", "w3", "r2")
	fmt.Fprintf(out, "%-18s %8.1f %8.1f %8.1f %8.1f %8.3f\n", "paper (Table 1)",
		model.PaperGPP.W0, model.PaperGPP.W1, model.PaperGPP.W2, model.PaperGPP.W3, 0.992)
	fmt.Fprintf(out, "%-18s %8.1f %8.1f %8.1f %8.1f %8.3f\n", "go-phy (measured)",
		params.W0, params.W1, params.W2, params.W3, r2)
	fmt.Fprintln(out, "\nnote: w-units are µs. The linearity in N, K and D·L is the property under test.")
	return nil
}

// measureOne runs one full subframe through transmit → channel → receive
// on rx, built for cfg, and returns the observation for the model fit. The
// pipeline stages fan out across the pool's workers.
func measureOne(r *stats.RNG, rx *phy.Receiver, cfg phy.Config, pool *phy.Pool, snrDB float64) (model.Observation, error) {
	tx, err := phy.NewTransmitter(cfg)
	if err != nil {
		return model.Observation{}, err
	}
	payload := make([]byte, tx.TBS())
	bits.RandomBits(payload, r.Uint64)
	wave, err := tx.Transmit(payload)
	if err != nil {
		return model.Observation{}, err
	}
	ch, err := channel.New(snrDB, cfg.Antennas, r.Uint64())
	if err != nil {
		return model.Observation{}, err
	}
	iq, _ := ch.Apply(wave)
	start := time.Now()
	res, err := pool.ProcessParallel(rx, iq, ch.N0())
	if err != nil {
		return model.Observation{}, err
	}
	elapsed := time.Since(start).Seconds() * 1e6 // µs
	info, err := lte.MCSTable(cfg.MCS)
	if err != nil {
		return model.Observation{}, err
	}
	d, err := lte.SubcarrierLoad(cfg.MCS, cfg.Bandwidth)
	if err != nil {
		return model.Observation{}, err
	}
	l := res.Iterations
	if l < 1 {
		l = 1
	}
	return model.Observation{N: cfg.Antennas, K: info.Scheme.Order(), D: d, L: l, T: elapsed}, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
