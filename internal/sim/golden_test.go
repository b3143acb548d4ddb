package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/cmplx"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wivi/internal/nulling"
	"wivi/internal/rf"
)

var updateGolden = flag.Bool("update", false, "rewrite the simulator golden fixtures")

const (
	goldenPath      = "testdata/golden_capture.json"
	goldenCodesPath = "testdata/golden_codes.sha256"
)

// Golden scene: a seeded room behind a 6" hollow wall with two walkers,
// nulled with the default configuration, then a short capture taken
// while both walk.
const (
	goldenSeed    = 31
	goldenStartT  = 1.0
	goldenSamples = 64
	// goldenTol is the relative tolerance on P and the nulling depth,
	// and the relative slack on the one-LSB sample tolerance (the
	// division that refers a code to the receiver input rounds).
	goldenTol = 1e-9
)

// goldenCapture is the serialized fixture shape; complex values are
// stored as [re, im] pairs and the capture is indexed
// [subcarrier][sample].
type goldenCapture struct {
	P          [][2]float64   `json:"p"`
	AchievedDB float64        `json:"achieved_db"`
	Samples    [][][2]float64 `json:"samples"`
}

// TestGoldenCapture pins the simulator: the nulling outcome and a short
// nulled capture of a seeded two-walker scene must match the checked-in
// fixture. The samples are allowed one ADC LSB referred to the receiver
// input, so a kernel rewrite that moves the pre-ADC values by rounding
// (and so may flip a code at a rounding boundary) passes, while any
// change to the physics moves them by many LSBs. Regenerate with
// `go test ./internal/sim -run TestGoldenCapture -update` only after an
// intentional change to the simulated physics.
func TestGoldenCapture(t *testing.T) {
	sc := NewScene(SceneConfig{Seed: goldenSeed, Wall: rf.HollowWall})
	for i := 0; i < 2; i++ {
		if _, err := sc.AddWalker(goldenStartT + 1); err != nil {
			t.Fatal(err)
		}
	}
	d, err := NewDevice(sc, DefaultCalibration(), DeviceConfig{Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nulling.Run(d, nulling.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.StartCapture(res.P, d.Cal.BoostDB, goldenStartT, goldenSamples)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := s.Read(goldenSamples)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenCapture{
		P:          pairs(res.P),
		AchievedDB: res.AchievedNullingDB(),
		Samples:    make([][][2]float64, len(samples)),
	}
	for k, row := range samples {
		got.Samples[k] = pairs(row)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := got.marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%.1f dB nulling, %d x %d samples)", goldenPath, got.AchievedDB, len(samples), goldenSamples)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	var want goldenCapture
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	if len(got.P) != len(want.P) {
		t.Fatalf("P length %d, want %d", len(got.P), len(want.P))
	}
	for k := range got.P {
		g, w := pairComplex(got.P[k]), pairComplex(want.P[k])
		if cmplx.Abs(g-w) > goldenTol*cmplx.Abs(w) {
			t.Errorf("P[%d] = %v, want %v", k, g, w)
		}
	}
	if math.Abs(got.AchievedDB-want.AchievedDB) > goldenTol*math.Abs(want.AchievedDB) {
		t.Errorf("achieved nulling %v dB, want %v", got.AchievedDB, want.AchievedDB)
	}

	// One LSB referred to the receiver input: Capture divides each
	// quantized code by the receive gain and the boosted amplitude.
	lsb := d.adc.LSB() / s.gain / cmplx.Abs(s.amp) * (1 + goldenTol)
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("capture has %d subcarriers, want %d", len(got.Samples), len(want.Samples))
	}
	for k := range got.Samples {
		if len(got.Samples[k]) != len(want.Samples[k]) {
			t.Fatalf("subcarrier %d has %d samples, want %d", k, len(got.Samples[k]), len(want.Samples[k]))
		}
		for i := range got.Samples[k] {
			for c := 0; c < 2; c++ {
				if diff := math.Abs(got.Samples[k][i][c] - want.Samples[k][i][c]); diff > lsb {
					t.Fatalf("sample [%d][%d] = %v, want %v (off by %.2f LSB)",
						k, i, got.Samples[k][i], want.Samples[k][i], diff/lsb)
				}
			}
		}
	}
}

// marshal writes the fixture with one subcarrier's samples per line, so
// it stays a few dozen lines long and a change shows which rows moved.
func (g goldenCapture) marshal() ([]byte, error) {
	var b bytes.Buffer
	p, err := json.Marshal(g.P)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "{\n \"p\": %s,\n \"achieved_db\": %v,\n \"samples\": [\n", p, g.AchievedDB)
	for k, row := range g.Samples {
		r, err := json.Marshal(row)
		if err != nil {
			return nil, err
		}
		sep := ","
		if k == len(g.Samples)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %s%s\n", r, sep)
	}
	b.WriteString(" ]\n}\n")
	return b.Bytes(), nil
}

func pairs(xs []complex128) [][2]float64 {
	out := make([][2]float64, len(xs))
	for i, x := range xs {
		out[i] = [2]float64{real(x), imag(x)}
	}
	return out
}

func pairComplex(p [2]float64) complex128 { return complex(p[0], p[1]) }

// TestGoldenCodes pins the simulator at the level of ADC codes: a
// SHA-256 over the codes of ten seeded nulled captures of one to three
// walkers, each read in chunks of 2,500, 100, 25 and 33 samples. Each
// code is recovered from its sample as round(value·|amp|·gain/LSB) with
// the session's own gain, so a kernel rewrite that moves the AGC gain
// and the pre-ADC values by rounding passes, while a change to the
// physics, the noise stream or the chunking flips codes. A code flips
// on rounding alone only when its value lies within ~1e-10 LSB of a
// rounding boundary (DESIGN §2), which is what keeps the digest stable
// across Go versions and FMA platforms. Regenerate with
// `go test ./internal/sim -run TestGoldenCodes -update` only after an
// intentional change to the simulated physics.
func TestGoldenCodes(t *testing.T) {
	reads := []int{2500, 100, 25, 33}
	total := 0
	for _, n := range reads {
		total += n
	}
	sum := sha256.New()
	var code [8]byte
	for seed := int64(1); seed <= 10; seed++ {
		sc := NewScene(SceneConfig{Seed: seed, Wall: rf.HollowWall})
		for i := 0; i < 1+int(seed%3); i++ {
			if _, err := sc.AddWalker(goldenStartT + float64(total)*DefaultCalibration().SampleT + 1); err != nil {
				t.Fatal(err)
			}
		}
		d, err := NewDevice(sc, DefaultCalibration(), DeviceConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := nulling.Run(d, nulling.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s, err := d.StartCapture(res.P, d.Cal.BoostDB, goldenStartT, total)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range reads {
			rows, err := s.Read(n)
			if err != nil {
				t.Fatal(err)
			}
			scale := cmplx.Abs(s.amp) * s.gain / d.adc.LSB()
			for _, row := range rows {
				for _, v := range row {
					for _, x := range [2]float64{real(v), imag(v)} {
						binary.LittleEndian.PutUint64(code[:], uint64(int64(math.Round(x*scale))))
						sum.Write(code[:])
					}
				}
			}
		}
	}
	got := hex.EncodeToString(sum.Sum(nil))
	if *updateGolden {
		if err := os.WriteFile(goldenCodesPath, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%s)", goldenCodesPath, got)
		return
	}
	data, err := os.ReadFile(goldenCodesPath)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if want := strings.TrimSpace(string(data)); got != want {
		t.Fatalf("ADC codes of the seeded captures hash to %s, want %s", got, want)
	}
}
