// Package ofdm holds the cross-subcarrier combining step of §7.1 ("the
// channel measurements across the different subcarriers are combined to
// improve the SNR"). The prototype's OFDM modem is not reproduced: the
// simulator synthesizes each subcarrier's channel estimate directly
// (DESIGN §2), so no symbol is ever modulated or demodulated.
package ofdm

import "fmt"

// ActiveSubcarriers returns the non-nil subcarrier series of a capture
// after validating that they share one length — the prologue of
// core.EmitChunks, which replays a recorded capture in chunks, matching AverageSubcarriersAppend's checks so
// batch combining and stream chunking can never diverge on how inactive
// bins or ragged input are treated.
func ActiveSubcarriers(hs [][]complex128) ([][]complex128, error) {
	var active [][]complex128
	for _, h := range hs {
		if len(h) > 0 {
			active = append(active, h)
		}
	}
	if len(active) == 0 {
		return nil, fmt.Errorf("ofdm: need at least one active subcarrier")
	}
	n := len(active[0])
	for _, h := range active {
		if len(h) != n {
			return nil, fmt.Errorf("ofdm: ragged subcarrier input")
		}
	}
	return active, nil
}

// AverageSubcarriers combines per-subcarrier samples by plain
// averaging, without phase alignment — the streaming pipeline's
// combiner (batch and streamed captures both run it, per chunk).
//
// Why no alignment: across a 5 MHz band at 2.4 GHz, a scatterer at
// round-trip distance d offsets subcarrier phases by 2π·d·Δf/c — under
// ±0.8 rad even at 20 m, costing well under 1 dB of coherence. Any
// causal *estimated* alignment (running cross-phase, per-window
// cross-correlation) injects estimation noise that exceeds that loss
// exactly where it matters — at motion onset after a quiet lead-in,
// where the estimate is still noise-driven (measured on the §6 gesture
// trials; see DESIGN.md §6). An acausal whole-capture alignment avoids
// the estimation noise but cannot stream: no combined sample is
// computable before the last raw sample arrives (the tests keep one as
// the SNR reference).
// Plain averaging is stateless, exactly causal, and trivially invariant
// to how the capture is chunked — the streaming chain's batch-identity
// guarantee rests on that invariance. Noise still averages down by √K
// across the K independent subcarriers, which is the §7.1 SNR motive.
func AverageSubcarriers(hs [][]complex128) ([]complex128, error) {
	out, err := AverageSubcarriersAppend(nil, hs)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AverageSubcarriersAppend is AverageSubcarriers appending the combined
// samples to dst and returning the extended slice — the allocation-free
// form the streaming chain calls once per chunk. Validation and
// summation order match ActiveSubcarriers / AverageSubcarriers exactly
// (non-empty bins in input order), so the two entry points agree bit for
// bit.
//
//wivi:hotpath
func AverageSubcarriersAppend(dst []complex128, hs [][]complex128) ([]complex128, error) {
	n, active := -1, 0
	for _, h := range hs {
		if len(h) == 0 {
			continue
		}
		if n < 0 {
			n = len(h)
		} else if len(h) != n {
			return dst, fmt.Errorf("ofdm: ragged subcarrier input")
		}
		active++
	}
	if active == 0 {
		return dst, fmt.Errorf("ofdm: need at least one active subcarrier")
	}
	inv := complex(1/float64(active), 0)
	for i := 0; i < n; i++ {
		var sum complex128
		for _, h := range hs {
			if len(h) > 0 {
				sum += h[i]
			}
		}
		dst = append(dst, sum*inv)
	}
	return dst, nil
}
