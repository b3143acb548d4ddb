// Package ofdm implements the Wi-Fi OFDM physical layer the Wi-Vi
// prototype transmits (§7.1): 64-subcarrier symbols with a cyclic prefix,
// known BPSK preambles, per-subcarrier channel estimation, and the
// cross-subcarrier combining step that improves the tracking SNR.
package ofdm

import (
	"fmt"

	"wivi/internal/dsp"
	"wivi/internal/rng"
)

// Standard Wi-Fi OFDM parameters.
const (
	// NumSubcarriers is the FFT size: 64 subcarriers including the DC
	// (§7.1: "each OFDM symbol consists of 64 subcarriers including the
	// DC").
	NumSubcarriers = 64
	// CyclicPrefixLen is the guard interval in samples (802.11 uses 16).
	CyclicPrefixLen = 16
	// SymbolLen is the total time-domain symbol length.
	SymbolLen = NumSubcarriers + CyclicPrefixLen
)

// Preamble is a known frequency-domain training symbol used for channel
// estimation. The DC subcarrier is nulled, as in 802.11 and as required
// for the estimation divide.
type Preamble struct {
	// Freq holds the frequency-domain symbol, Freq[k] for k in
	// [0, NumSubcarriers). Index 0 is the DC bin and is always zero.
	Freq []complex128
}

// NewPreamble generates a deterministic BPSK preamble from the seed.
func NewPreamble(seed int64) *Preamble {
	s := rng.New(seed)
	f := make([]complex128, NumSubcarriers)
	for k := 1; k < NumSubcarriers; k++ {
		if s.Float64() < 0.5 {
			f[k] = 1
		} else {
			f[k] = -1
		}
	}
	return &Preamble{Freq: f}
}

// ActiveBins returns the indices of non-nulled subcarriers.
func (p *Preamble) ActiveBins() []int {
	var bins []int
	for k, v := range p.Freq {
		if v != 0 {
			bins = append(bins, k)
		}
	}
	return bins
}

// Modulate converts a frequency-domain symbol into the time-domain
// waveform with cyclic prefix. ModulateInto is the allocation-free form
// for per-symbol loops.
func Modulate(freq []complex128) ([]complex128, error) {
	return ModulateInto(make([]complex128, SymbolLen), freq)
}

// ModulateInto is Modulate writing the SymbolLen-sample waveform into
// dst, which must not alias freq. The IFFT lands directly in the symbol
// body and the cyclic prefix is copied from its tail, and the 64-point
// transform is radix-2, so the whole synthesis is allocation-free.
// Returns dst.
//
//wivi:hotpath
func ModulateInto(dst, freq []complex128) ([]complex128, error) {
	if len(freq) != NumSubcarriers {
		return nil, fmt.Errorf("ofdm: Modulate needs %d bins, got %d", NumSubcarriers, len(freq))
	}
	if len(dst) != SymbolLen {
		return nil, fmt.Errorf("ofdm: ModulateInto needs a %d-sample dst, got %d", SymbolLen, len(dst))
	}
	dsp.IFFTInto(dst[CyclicPrefixLen:], freq)
	copy(dst[:CyclicPrefixLen], dst[SymbolLen-CyclicPrefixLen:])
	return dst, nil
}

// Demodulate strips the cyclic prefix and returns the frequency-domain
// symbol. DemodulateInto is the allocation-free form.
func Demodulate(td []complex128) ([]complex128, error) {
	return DemodulateInto(make([]complex128, NumSubcarriers), td)
}

// DemodulateInto is Demodulate writing the NumSubcarriers-bin symbol into
// dst, which must not alias td. Returns dst.
//
//wivi:hotpath
func DemodulateInto(dst, td []complex128) ([]complex128, error) {
	if len(td) != SymbolLen {
		return nil, fmt.Errorf("ofdm: Demodulate needs %d samples, got %d", SymbolLen, len(td))
	}
	if len(dst) != NumSubcarriers {
		return nil, fmt.Errorf("ofdm: DemodulateInto needs a %d-bin dst, got %d", NumSubcarriers, len(dst))
	}
	dsp.FFTInto(dst, td[CyclicPrefixLen:])
	return dst, nil
}

// ApplyChannelFlat applies a per-subcarrier channel h[k] to a
// frequency-domain symbol (the standard OFDM flat-per-subcarrier model).
func ApplyChannelFlat(freq, h []complex128) ([]complex128, error) {
	if len(freq) != len(h) {
		return nil, fmt.Errorf("ofdm: channel length %d != symbol length %d", len(h), len(freq))
	}
	out := make([]complex128, len(freq))
	for k := range freq {
		out[k] = freq[k] * h[k]
	}
	return out, nil
}

// EstimateChannel computes per-subcarrier channel estimates h[k] =
// rx[k]/tx[k] over the preamble's active bins; nulled bins estimate to 0.
func EstimateChannel(rx []complex128, p *Preamble) ([]complex128, error) {
	if len(rx) != len(p.Freq) {
		return nil, fmt.Errorf("ofdm: EstimateChannel rx length %d != %d", len(rx), len(p.Freq))
	}
	h := make([]complex128, len(rx))
	for k, x := range p.Freq {
		if x == 0 {
			continue
		}
		h[k] = rx[k] / x
	}
	return h, nil
}

// ActiveSubcarriers returns the non-nil subcarrier series of a capture
// after validating that they share one length — the prologue of the
// streaming chunk adapter, matching AverageSubcarriersAppend's checks so
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
