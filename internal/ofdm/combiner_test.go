package ofdm

import (
	"math"
	"math/cmplx"
	"testing"

	"wivi/internal/rng"
)

// CombineSubcarriers coherently combines per-subcarrier channel time
// series into one stream, improving SNR (§7.1: "The channel measurements
// across the different subcarriers are combined to improve the SNR").
//
// hs[k][n] is the channel of subcarrier k at time n; bins may be nil (the
// DC bin). Because the signal bandwidth (5 MHz) is tiny relative to the
// 2.4 GHz carrier, the motion-induced phase evolution is essentially
// identical across subcarriers; each subcarrier differs only by a static
// phase offset determined by the path delays. The combiner aligns each
// subcarrier to the reference subcarrier using the time-averaged
// cross-phase, then averages.
//
// It aligns over the whole capture at once (acausal), so it cannot
// stream: no combined sample is computable before the last raw sample
// arrives. The capture pipeline uses AverageSubcarriers instead — see
// its doc for why the alignment is skipped entirely there — and the
// tests keep this combiner as the reference that plain averaging is
// measured against.
func CombineSubcarriers(hs [][]complex128) ([]complex128, error) {
	active, err := ActiveSubcarriers(hs)
	if err != nil {
		return nil, err
	}
	n := len(active[0])
	ref := active[len(active)/2]
	out := make([]complex128, n)
	for _, h := range active {
		// Time-averaged cross-correlation phase against the reference.
		var x complex128
		for i := 0; i < n; i++ {
			x += h[i] * cmplx.Conj(ref[i])
		}
		rot := complex(1, 0)
		if m := cmplx.Abs(x); m > 0 {
			rot = cmplx.Conj(x / complex(m, 0))
		}
		for i := 0; i < n; i++ {
			out[i] += h[i] * rot
		}
	}
	inv := complex(1/float64(len(active)), 0)
	for i := range out {
		out[i] *= inv
	}
	return out, nil
}

func TestCombineSubcarriersCoherentGain(t *testing.T) {
	// K subcarriers observing the same motion signal with different static
	// phases plus independent noise: combining must raise SNR.
	const k = 16
	const n = 400
	s := rng.New(21)
	signal := make([]complex128, n)
	for i := range signal {
		signal[i] = cmplx.Rect(1, 2*math.Pi*0.01*float64(i))
	}
	const noisePwr = 0.5
	hs := make([][]complex128, k)
	for j := 0; j < k; j++ {
		rot := s.UnitPhasor()
		hs[j] = make([]complex128, n)
		for i := 0; i < n; i++ {
			hs[j][i] = signal[i]*rot + s.ComplexGaussian(noisePwr)
		}
	}
	combined, err := CombineSubcarriers(hs)
	if err != nil {
		t.Fatal(err)
	}
	// Residual error vs the (rotated) clean signal: align combined to
	// signal first, then measure error power.
	var x complex128
	for i := 0; i < n; i++ {
		x += combined[i] * cmplx.Conj(signal[i])
	}
	rot := x / complex(cmplx.Abs(x), 0)
	var errPwr float64
	for i := 0; i < n; i++ {
		e := combined[i] - signal[i]*rot
		errPwr += real(e)*real(e) + imag(e)*imag(e)
	}
	errPwr /= n
	// Perfect combining of k subcarriers divides noise by k. Allow 3x
	// slack for alignment estimation error.
	if errPwr > 3*noisePwr/float64(k) {
		t.Fatalf("combined noise %v, want <= %v", errPwr, 3*noisePwr/float64(k))
	}
}

func TestCombineSubcarriersSkipsNilAndValidates(t *testing.T) {
	a := []complex128{1, 2, 3}
	combined, err := CombineSubcarriers([][]complex128{nil, a, nil})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if cmplx.Abs(combined[i]-a[i]) > 1e-12 {
			t.Fatalf("single-subcarrier combine altered data: %v", combined)
		}
	}
	if _, err := CombineSubcarriers(nil); err == nil {
		t.Fatal("empty combine accepted")
	}
	if _, err := CombineSubcarriers([][]complex128{{1}, {1, 2}}); err == nil {
		t.Fatal("ragged combine accepted")
	}
}

// synthBand builds per-subcarrier series sharing one motion-phase
// evolution, offset by small static per-subcarrier phases (the 5 MHz /
// 2.4 GHz regime: path-delay offsets stay well under a radian), plus
// independent noise per subcarrier.
func synthBand(nsub, n int, phaseSpread, noise float64, seed int64) [][]complex128 {
	s := rng.New(seed)
	phases := make([]float64, nsub)
	for k := range phases {
		phases[k] = (s.Float64() - 0.5) * 2 * phaseSpread
	}
	hs := make([][]complex128, nsub)
	for k := range hs {
		hs[k] = make([]complex128, n)
	}
	for i := 0; i < n; i++ {
		motion := cmplx.Rect(1, 2*math.Pi*0.01*float64(i))
		for k := range hs {
			hs[k][i] = motion * cmplx.Rect(1, phases[k])
			if noise > 0 {
				hs[k][i] += s.ComplexGaussian(noise)
			}
		}
	}
	return hs
}

// TestAverageSubcarriersChunkInvariance is the property the streaming
// chain's batch-identity guarantee rests on: combining the capture in
// any chunking produces a bit-identical stream.
func TestAverageSubcarriersChunkInvariance(t *testing.T) {
	hs := synthBand(5, 257, 0.8, 0.1, 1)
	whole, err := AverageSubcarriers(hs)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != 257 {
		t.Fatalf("combined %d samples, want 257", len(whole))
	}
	for _, chunk := range []int{1, 7, 64, 100, 256} {
		var got []complex128
		for off := 0; off < 257; {
			end := off + chunk
			if end > 257 {
				end = 257
			}
			part := make([][]complex128, len(hs))
			for k := range hs {
				part[k] = hs[k][off:end]
			}
			out, err := AverageSubcarriers(part)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, out...)
			off = end
		}
		if len(got) != len(whole) {
			t.Fatalf("chunk=%d: %d samples, want %d", chunk, len(got), len(whole))
		}
		for i := range got {
			if got[i] != whole[i] {
				t.Fatalf("chunk=%d: sample %d = %v, want %v", chunk, i, got[i], whole[i])
			}
		}
	}
}

// TestAverageSubcarriersSNRGain pins the §7.1 motive: averaging K
// subcarriers keeps the signal nearly coherent (sub-radian phase
// spread) while independent noise drops ~1/K in power, and the result
// stays close to the phase-aligned acausal combiner.
func TestAverageSubcarriersSNRGain(t *testing.T) {
	const nsub, n = 16, 4000
	noisePower := func(sub func(i int) complex128) float64 {
		var p float64
		for i := 0; i < n; i++ {
			d := sub(i)
			p += real(d)*real(d) + imag(d)*imag(d)
		}
		return p / n
	}
	clean := synthBand(nsub, n, 0.8, 0, 2)
	noisy := synthBand(nsub, n, 0.8, 0.5, 2) // same signal+phases (same seed draws), plus noise
	cleanAvg, err := AverageSubcarriers(clean)
	if err != nil {
		t.Fatal(err)
	}
	noisyAvg, err := AverageSubcarriers(noisy)
	if err != nil {
		t.Fatal(err)
	}
	// Signal survives averaging nearly intact despite the phase spread.
	var sigAmp float64
	for i := 0; i < n; i++ {
		sigAmp += cmplx.Abs(cleanAvg[i])
	}
	sigAmp /= n
	if sigAmp < 0.85 {
		t.Fatalf("combined signal amplitude %v, want > 0.85 (sub-radian spread)", sigAmp)
	}
	// Noise power drops by ~K relative to a single subcarrier.
	residual := noisePower(func(i int) complex128 { return noisyAvg[i] - cleanAvg[i] })
	single := noisePower(func(i int) complex128 { return noisy[0][i] - clean[0][i] })
	if gain := single / residual; gain < float64(nsub)/2 {
		t.Fatalf("noise reduction %vx, want ~%dx", gain, nsub)
	}
	// And the plain average stays within ~1 dB of the aligned combiner.
	aligned, err := CombineSubcarriers(clean)
	if err != nil {
		t.Fatal(err)
	}
	var alignedAmp float64
	for i := 0; i < n; i++ {
		alignedAmp += cmplx.Abs(aligned[i])
	}
	alignedAmp /= n
	if ratio := sigAmp / alignedAmp; ratio < 0.85 {
		t.Fatalf("plain average %v of aligned amplitude, want > 0.85 (< 1.5 dB loss)", ratio)
	}
}

func TestAverageSubcarriersValidation(t *testing.T) {
	if _, err := AverageSubcarriers(nil); err == nil {
		t.Fatal("no subcarriers accepted")
	}
	if _, err := AverageSubcarriers([][]complex128{nil, nil}); err == nil {
		t.Fatal("all-nil subcarriers accepted")
	}
	if _, err := AverageSubcarriers([][]complex128{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged input accepted")
	}
	// Nil bins are skipped; the average covers active bins only.
	out, err := AverageSubcarriers([][]complex128{nil, {2, 4}, {4, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 3 || out[1] != 5 {
		t.Fatalf("average = %v, want [3 5]", out)
	}
}
