package ofdm

import (
	"math/cmplx"
	"testing"

	"wivi/internal/rng"
)

func TestPreambleStructure(t *testing.T) {
	p := NewPreamble(1)
	if len(p.Freq) != NumSubcarriers {
		t.Fatalf("preamble length %d", len(p.Freq))
	}
	if p.Freq[0] != 0 {
		t.Fatal("DC bin must be nulled")
	}
	for k := 1; k < NumSubcarriers; k++ {
		if p.Freq[k] != 1 && p.Freq[k] != -1 {
			t.Fatalf("bin %d = %v, want BPSK", k, p.Freq[k])
		}
	}
	if len(p.ActiveBins()) != NumSubcarriers-1 {
		t.Fatalf("active bins = %d", len(p.ActiveBins()))
	}
}

func TestPreambleDeterminism(t *testing.T) {
	a := NewPreamble(7)
	b := NewPreamble(7)
	c := NewPreamble(8)
	diff := 0
	for k := range a.Freq {
		if a.Freq[k] != b.Freq[k] {
			t.Fatal("same seed produced different preambles")
		}
		if a.Freq[k] != c.Freq[k] {
			diff++
		}
	}
	if diff < 10 {
		t.Fatal("different seeds produced near-identical preambles")
	}
}

func TestModulateDemodulateRoundTrip(t *testing.T) {
	p := NewPreamble(3)
	td, err := Modulate(p.Freq)
	if err != nil {
		t.Fatal(err)
	}
	if len(td) != SymbolLen {
		t.Fatalf("symbol length %d", len(td))
	}
	// Cyclic prefix property: first CP samples replicate the tail.
	for i := 0; i < CyclicPrefixLen; i++ {
		if cmplx.Abs(td[i]-td[NumSubcarriers+i]) > 1e-12 {
			t.Fatalf("cyclic prefix broken at %d", i)
		}
	}
	rx, err := Demodulate(td)
	if err != nil {
		t.Fatal(err)
	}
	for k := range p.Freq {
		if cmplx.Abs(rx[k]-p.Freq[k]) > 1e-9 {
			t.Fatalf("round trip bin %d: %v vs %v", k, rx[k], p.Freq[k])
		}
	}
}

func TestModulateValidatesLength(t *testing.T) {
	if _, err := Modulate(make([]complex128, 32)); err == nil {
		t.Fatal("wrong-length modulate accepted")
	}
	if _, err := Demodulate(make([]complex128, 10)); err == nil {
		t.Fatal("wrong-length demodulate accepted")
	}
	if _, err := ModulateInto(make([]complex128, 3), NewPreamble(1).Freq); err == nil {
		t.Fatal("wrong-length ModulateInto dst accepted")
	}
	if _, err := DemodulateInto(make([]complex128, 3), make([]complex128, SymbolLen)); err == nil {
		t.Fatal("wrong-length DemodulateInto dst accepted")
	}
}

// TestModulateIntoMatchesModulate: the buffered forms are the delegation
// targets of Modulate/Demodulate, so they must agree bit for bit — and
// allocate nothing per symbol, the 64-point transform being radix-2.
func TestModulateIntoMatchesModulate(t *testing.T) {
	p := NewPreamble(3)
	want, err := Modulate(p.Freq)
	if err != nil {
		t.Fatal(err)
	}
	td := make([]complex128, SymbolLen)
	if _, err := ModulateInto(td, p.Freq); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if td[i] != want[i] {
			t.Fatalf("ModulateInto sample %d: %v, want %v", i, td[i], want[i])
		}
	}
	wantRx, err := Demodulate(td)
	if err != nil {
		t.Fatal(err)
	}
	rx := make([]complex128, NumSubcarriers)
	if _, err := DemodulateInto(rx, td); err != nil {
		t.Fatal(err)
	}
	for k := range wantRx {
		if rx[k] != wantRx[k] {
			t.Fatalf("DemodulateInto bin %d: %v, want %v", k, rx[k], wantRx[k])
		}
	}
	if avg := testing.AllocsPerRun(100, func() { ModulateInto(td, p.Freq); DemodulateInto(rx, td) }); avg != 0 {
		t.Errorf("symbol round trip allocates %.1f per op, want 0", avg)
	}
}

func TestChannelEstimationRecovers(t *testing.T) {
	p := NewPreamble(5)
	s := rng.New(11)
	h := make([]complex128, NumSubcarriers)
	for k := 1; k < NumSubcarriers; k++ {
		h[k] = complex(s.Gaussian(0, 1), s.Gaussian(0, 1))
	}
	rx, err := ApplyChannelFlat(p.Freq, h)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateChannel(rx, p)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < NumSubcarriers; k++ {
		if cmplx.Abs(est[k]-h[k]) > 1e-9 {
			t.Fatalf("bin %d estimate %v, want %v", k, est[k], h[k])
		}
	}
	if est[0] != 0 {
		t.Fatal("DC estimate should be zero")
	}
}

func TestApplyChannelFlatValidates(t *testing.T) {
	if _, err := ApplyChannelFlat(make([]complex128, 64), make([]complex128, 32)); err == nil {
		t.Fatal("mismatched channel accepted")
	}
	if _, err := EstimateChannel(make([]complex128, 32), NewPreamble(1)); err == nil {
		t.Fatal("mismatched estimate accepted")
	}
}

func BenchmarkModulate(b *testing.B) {
	p := NewPreamble(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Modulate(p.Freq); err != nil {
			b.Fatal(err)
		}
	}
}
