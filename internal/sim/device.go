package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"wivi/internal/geom"
	"wivi/internal/rf"
	"wivi/internal/rng"
	"wivi/internal/sdr"
)

// Device is the simulated 3-antenna Wi-Vi radio: two transmit antennas
// and one receive antenna on a bar one meter in front of the wall (§7.3),
// all directional and pointed through the wall (§3.1).
//
// Device implements the measurement interfaces the cores consume:
// nulling.Sounder (MeasureSingle / MeasureCombined) and the tracking
// capture used by core.Device.
type Device struct {
	// Tx1, Tx2, Rx are the antennas.
	Tx1, Tx2, Rx rf.Antenna
	// Cal is the calibration (hardware operating point).
	Cal Calibration

	scene *Scene
	// humans is the scene's subjects when the device was built. The
	// device nulled against them, so it measures them alone: a subject
	// added to the scene later is not part of its channel.
	humans  []*Human
	lambdas []float64 // per-subcarrier wavelengths
	lambda0 float64   // center wavelength
	// ampRatio[k] = lambdas[k]/lambda0 scales a path's center-wavelength
	// amplitude to subcarrier k. invLambda = 1/lambdas[0] and binStep =
	// Δf/c, the change of 1/λ from one subcarrier to the next, give a
	// path's phase at every bin (see movingChannelsInto).
	ampRatio  []float64
	invLambda float64
	binStep   float64
	// txPat and rxPat are the antennas' pattern forms, fixed at
	// construction like the static sums.
	txPat [2]rf.Pattern
	rxPat rf.Pattern
	noise *rng.Stream
	adc   sdr.ADC
	tx    sdr.Transmitter

	// static per-antenna, per-subcarrier channel sums (geometry frozen).
	static [2][]complex128
	// frozen is each transmit antenna's per-subcarrier channel with the
	// moving scene frozen at nullTime: the static sums plus every body
	// part where it stands then. Every sounding measures it.
	frozen [2][]complex128
	// stage1Gain is the AGC gain of un-nulled sounding: it places the
	// strongest frozen channel at AGCTargetFrac of ADC full scale.
	stage1Gain float64
	// oscPhase is the oscillator phase-noise state (OU process).
	oscPhase float64
	// synthWorkers bounds the fan-out of a capture read's synthesis pass
	// (DeviceConfig.SynthWorkers).
	synthWorkers int
}

// The device geometry, in meters.
const (
	// standoff is the distance from the wall (§7.3).
	standoff = 1.0
	// antennaSpacing separates the two transmit antennas (the receive
	// antenna sits roughly midway).
	antennaSpacing = 0.7
	// standoffStagger offsets the second transmit antenna's standoff. A
	// perfectly symmetric layout is degenerate: the two flash channels
	// become identical, the precoder converges to p = -1, and the null
	// then also suppresses any mover on the symmetry axis. Physical rigs
	// are never symmetric; 0.094 m (~3 lambda/4) keeps the flash-phase
	// difference near pi so movers are never co-nulled.
	standoffStagger = 0.094
	// rxOffset shifts the receive antenna off the midline (same
	// asymmetry rationale).
	rxOffset = 0.05
)

// nullTime is the time at which nulling freezes the moving scene. Wi-Vi
// nulls once per placement (§4, Algorithm 1), so every sounding of every
// subcarrier measures the same frozen scene.
const nullTime = 0.0

// DeviceConfig seeds the device and sizes its synthesis fan-out.
type DeviceConfig struct {
	// Seed drives the device's noise stream.
	Seed int64
	// SynthWorkers bounds how many goroutines share the channel synthesis
	// of one capture read, each taking a contiguous block of samples
	// (DESIGN §2). 0 means GOMAXPROCS; 1 keeps synthesis on the calling
	// goroutine. The width never changes a sample.
	SynthWorkers int
}

// NewDevice builds a device in front of the scene's wall. The device
// freezes the scene's static paths and its nulling scene here, and it
// keeps the scene's humans as they are now: it does not see a human
// added to the scene after it is built (Truth, which samples the
// scene's ground truth, does).
func NewDevice(sc *Scene, cal Calibration, cfg DeviceConfig) (*Device, error) {
	if err := cal.Validate(); err != nil {
		return nil, err
	}
	y := sc.WallY - standoff
	up := geom.Vec{X: 0, Y: 1}
	d := &Device{
		Tx1:    rf.NewDirectional(geom.Point{X: -antennaSpacing / 2, Y: y}, up),
		Tx2:    rf.NewDirectional(geom.Point{X: +antennaSpacing / 2, Y: y + standoffStagger}, up),
		Rx:     rf.NewDirectional(geom.Point{X: rxOffset, Y: y}, up),
		Cal:    cal,
		scene:  sc,
		humans: slices.Clone(sc.Humans),
		noise:  rng.DeriveSeed(cfg.Seed^sc.Seed, "device-noise"),
	}
	adc, err := sdr.NewADC(cal.ADCBits, cal.ADCFullScale)
	if err != nil {
		return nil, err
	}
	d.adc = adc
	d.tx = sdr.Transmitter{MaxAmp: cal.TxMaxAmp}
	d.synthWorkers = cfg.SynthWorkers
	if d.synthWorkers <= 0 {
		d.synthWorkers = runtime.GOMAXPROCS(0)
	}
	d.lambda0 = rf.Wavelength(cal.CenterHz)
	for k := 0; k < cal.NumSubcarriers; k++ {
		// Center the simulated bins across the band.
		idx := k - cal.NumSubcarriers/2
		f := rf.SubcarrierFreq(cal.CenterHz, cal.BandwidthHz, idx, cal.NumSubcarriers)
		d.lambdas = append(d.lambdas, rf.Wavelength(f))
		d.ampRatio = append(d.ampRatio, d.lambdas[k]/d.lambda0)
	}
	d.invLambda = 1 / d.lambdas[0]
	d.binStep = cal.BandwidthHz / float64(cal.NumSubcarriers) / rf.C
	d.txPat = [2]rf.Pattern{d.Tx1.Pattern(), d.Tx2.Pattern()}
	d.rxPat = d.Rx.Pattern()
	d.static[0] = d.computeStatic(1)
	d.static[1] = d.computeStatic(2)
	d.freeze()
	return d, nil
}

// Pos returns the device reference position (the receive antenna).
func (d *Device) Pos() geom.Point { return d.Rx.Pos }

// Wavelength returns the center carrier wavelength.
func (d *Device) Wavelength() float64 { return d.lambda0 }

// SampleT returns the tracking sample period.
func (d *Device) SampleT() float64 { return d.Cal.SampleT }

// NumSubcarriers returns the number of simulated subcarriers.
func (d *Device) NumSubcarriers() int { return d.Cal.NumSubcarriers }

// NoiseFloor returns the expected noise power of one subcarrier-combined
// tracking sample — what a real receiver measures with the transmitter
// off, referred to the same normalized units as Capture's output (which
// divides by the boosted transmit amplitude). The counting statistic
// anchors its energy scale to it.
func (d *Device) NoiseFloor() float64 {
	boostPower := math.Pow(10, d.Cal.BoostDB/10)
	return d.Cal.NoisePower / float64(d.Cal.TrackAverages) /
		float64(d.Cal.NumSubcarriers) / boostPower
}

func (d *Device) txAntenna(ant int) rf.Antenna {
	if ant == 1 {
		return d.Tx1
	}
	return d.Tx2
}

// computeStatic sums all static paths for one transmit antenna across
// subcarriers: the direct Tx->Rx leak, the wall flash, a back-wall
// reflection, and the static clutter in scene order. No path's geometry
// or pattern gains depend on the wavelength, so the antenna's path list
// is built once and each subcarrier sums its paths' channels in list
// order.
func (d *Device) computeStatic(ant int) []complex128 {
	txa, sc := d.txAntenna(ant), d.scene
	paths := make([]rf.Path, 0, 3+len(sc.Clutter))
	// Direct leakage between the antennas (attenuated by the directional
	// patterns, §4.1).
	paths = append(paths, rf.DirectPath(txa, d.Rx, 1))
	if sc.HasWall() {
		// The flash: specular reflection off the wall face, then the
		// room's back wall, a weaker mirror behind two wall traversals.
		paths = append(paths,
			rf.MirrorPath(txa, d.Rx, sc.WallY, sc.Wall.Reflectivity),
			rf.MirrorPath(txa, d.Rx, sc.Room.Max.Y, 0.4*sc.TwoWayWallAmp()))
	}
	for _, c := range sc.Clutter {
		extra := 1.0
		if c.BehindWall {
			extra = sc.TwoWayWallAmp()
		}
		paths = append(paths, rf.ScatterPath(txa, d.Rx, c.Pos, c.RCS, extra))
	}
	out := make([]complex128, len(d.lambdas))
	for k, lambda := range d.lambdas {
		var h complex128
		for _, p := range paths {
			h += p.Channel(lambda)
		}
		out[k] = h
	}
	return out
}

// sideWallReflectivity scales the indoor multipath bounces off the
// room's side walls (image method). These indirect returns matter beyond
// realism: each bounce path has a different Tx1/Tx2 geometry, so the
// MIMO null can never suppress a mover's direct and indirect returns
// simultaneously — multipath is what keeps the paper's "invisible
// trajectory" loci (§5.1 fn. 5) measure-zero in practice.
const sideWallReflectivity = 0.35

// scatterPath is one row of the moving-channel kernel's path table: a
// scatter point, a body part or one of its two side-wall images, and
// what each stage pass derives from it for the path from each transmit
// antenna to the receiver.
type scatterPath struct {
	// amp is the part's amplitude factor (the radar-equation factor
	// sqrt(rcs/4π)·λ0/4π times the two-way wall transmission), times
	// sideWallReflectivity for an image. It is fixed for a read.
	amp float64
	// at is the scatter point at the sample's time.
	at geom.Point
	// dRx is the receive distance and dTx the distance from each
	// transmit antenna, all clamped to rf.MinRange.
	dRx float64
	dTx [2]float64
	// gain is each transmit path's summed pattern gain in dB, then its
	// center-wavelength amplitude.
	gain [2]float64
	// phase is each path's phase at bin 0 and delta its change from one
	// bin to the next, both in turns.
	phase, delta [2]float64
	// z is each path's channel at bin 0 and step its phasor from one
	// bin to the next.
	z, step [2]complex128
}

// scatterPaths appends to dst the path table of the device's humans:
// three rows per body part of every human in scene order (the part,
// then its east and west side-wall images), each with its amp set. The
// table is the kernel's per-block scratch; a read builds it once, since
// neither the parts nor their amplitudes change within a read.
func (d *Device) scatterPaths(dst []scatterPath) []scatterPath {
	n := 0
	for _, h := range d.humans {
		n += len(h.Parts)
	}
	dst = slices.Grow(dst, 3*n)
	wallAmp := d.scene.TwoWayWallAmp()
	for _, h := range d.humans {
		for _, part := range h.Parts {
			amp := math.Sqrt(part.RCS/(4*math.Pi)) * d.lambda0 / (4 * math.Pi) * wallAmp
			side := amp * sideWallReflectivity
			dst = append(dst, scatterPath{amp: amp}, scatterPath{amp: side}, scatterPath{amp: side})
		}
	}
	return dst
}

// movingChannelsInto writes the per-subcarrier channel contribution of
// the device's humans at time t for transmit antennas 1 and 2 into h1 and h2
// (length NumSubcarriers, zeroed here): the direct through-wall return
// of every body part plus its two side-wall bounce images. Each scatter
// point contributes one path per transmit antenna, amp/(dTx·dRx) times
// both antenna gains (the radar equation of rf.ScatterPath at the
// center wavelength), scaled per subcarrier by λk/λ0. paths is the
// scene's path table (scatterPaths), which the kernel fills.
//
// It is the tracking capture's per-sample kernel, run as stage passes
// over the table (DESIGN §2): gather the scatter points; their
// distances and pattern gains, the receive leg shared by both transmit
// paths; each path's dB-to-amplitude Exp; its phases; its phasors; then
// the subcarrier sums. The simulated bins are evenly spaced in
// frequency, so a path's phase of -length/λk turns steps by the same
// δ = -length·Δf/c turns from bin to bin, and its channel is
// amp·e^{j2πφ0}·(e^{j2πδ})^k: four phasor calls per scatter point, on
// phases in turns that are products of the length and two kept
// constants, then a complex multiply per bin. Each step rounds by ~ε,
// so bin k is within ~k·ε of the direct e^{-j2π·length/λk}, far below
// the ADC's resolution. The sums run in path order with both antennas
// in one loop, and λk/λ0 is applied once per bin at the end.
//
//wivi:hotpath
func (d *Device) movingChannelsInto(h1, h2 []complex128, t float64, paths []scatterPath) {
	east2, west2 := 2*d.scene.Room.Max.X, 2*d.scene.Room.Min.X
	j := 0
	for _, h := range d.humans {
		for _, part := range h.Parts {
			pos := part.Traj.At(t)
			paths[j].at = pos
			paths[j+1].at = geom.Point{X: east2 - pos.X, Y: pos.Y}
			paths[j+2].at = geom.Point{X: west2 - pos.X, Y: pos.Y}
			j += 3
		}
	}
	paths = paths[:j]
	for i := range paths {
		p := &paths[i]
		dir := p.at.Sub(d.Rx.Pos)
		rxDB := d.rxPat.GainDBAlong(dir)
		p.dRx = atLeastMinRange(length(dir))
		dir = p.at.Sub(d.Tx1.Pos)
		p.dTx[0] = atLeastMinRange(length(dir))
		p.gain[0] = d.txPat[0].GainDBAlong(dir) + rxDB
		dir = p.at.Sub(d.Tx2.Pos)
		p.dTx[1] = atLeastMinRange(length(dir))
		p.gain[1] = d.txPat[1].GainDBAlong(dir) + rxDB
	}
	for i := range paths {
		p := &paths[i]
		amp := p.amp / p.dRx
		p.gain[0] = rf.AmplitudeOfDB(p.gain[0]) * amp / p.dTx[0]
		p.gain[1] = rf.AmplitudeOfDB(p.gain[1]) * amp / p.dTx[1]
	}
	for i := range paths {
		p := &paths[i]
		for a := range p.phase {
			l := p.dTx[a] + p.dRx
			p.phase[a] = -l * d.invLambda
			p.delta[a] = -l * d.binStep
		}
	}
	for i := range paths {
		p := &paths[i]
		for a := range p.z {
			u := phasor(p.phase[a])
			p.z[a] = complex(p.gain[a]*real(u), p.gain[a]*imag(u))
			p.step[a] = phasor(p.delta[a])
		}
	}
	r := d.ampRatio
	h1 = h1[:len(r)]
	h2 = h2[:len(r)]
	clear(h1)
	clear(h2)
	for i := range paths {
		p := &paths[i]
		z1, z2 := p.z[0], p.z[1]
		step1, step2 := p.step[0], p.step[1]
		h1[0] += z1
		h2[0] += z2
		for k := 1; k < len(r); k++ {
			z1 *= step1
			z2 *= step2
			h1[k] += z1
			h2[k] += z2
		}
	}
	for k, rk := range r {
		h1[k] = complex(rk*real(h1[k]), rk*imag(h1[k]))
		h2[k] = complex(rk*real(h2[k]), rk*imag(h2[k]))
	}
}

// phasor returns e^{j2π·t}, the unit phasor of a phase of t turns, for
// |t| ≤ 2^48. It rounds 4|t| to the nearest integer n, ties to even, by
// adding and subtracting 2^52, which is exact while 4|t| < 2^52 and
// leaves n's low bits in the sum's mantissa. It evaluates math.Sincos's
// own kernel polynomials at z = (4|t| − n)·π/2, which lies in
// [−π/4, π/4], and turns the result by the quadrant n mod 4 with
// integer bit operations: sine and cosine swap for odd n, and each
// takes a sign flip. The sine then takes t's sign bit. Nothing branches
// on t (math.Sincos's octant tests branch on what are effectively
// random path phases), and a phase in turns needs no 2π multiply or
// three-constant reduction. sin(−t) = −sin(t) and cos(−t) = cos(t) bit
// for bit; each component is within 2ε of
// math.Sincos(2π·(t − RoundToEven(t))), and exact at every quarter
// turn. NaN or ±Inf gives NaN.
//
//wivi:hotpath
func phasor(t float64) complex128 {
	const (
		shift = 1 << 52
		sign  = 1 << 63
		// math.Sincos's kernel polynomials (the Cephes sin and cos
		// coefficients in math/sin.go) for |z| ≤ π/4.
		s0, s1, s2 = 1.58962301576546568060e-10, -2.50507477628578072866e-8, 2.75573136213857245213e-6
		s3, s4, s5 = -1.98412698295895385996e-4, 8.33333333332211858878e-3, -1.66666666666666307295e-1
		c0, c1, c2 = -1.13585365213876817300e-11, 2.08757008419747316778e-9, -2.75573141792967388112e-7
		c3, c4, c5 = 2.48015872888517045348e-5, -1.38888888888730564116e-3, 4.16666666666665929218e-2
	)
	q := 4 * math.Abs(t)
	m := q + shift
	n := math.Float64bits(m)
	z := (q - (m - shift)) * (math.Pi / 2)
	zz := z * z
	s := math.Float64bits(z + z*zz*(((((s0*zz+s1)*zz+s2)*zz+s3)*zz+s4)*zz+s5))
	c := math.Float64bits(1 - 0.5*zz + zz*zz*(((((c0*zz+c1)*zz+c2)*zz+c3)*zz+c4)*zz+c5))
	swap := (s ^ c) & -(n & 1)
	s ^= swap ^ (n&2)<<62 ^ math.Float64bits(t)&sign
	c ^= swap ^ (n^n>>1)<<63
	return complex(math.Float64frombits(c), math.Float64frombits(s))
}

// length is |v| as math.Sqrt(x²+y²). Scene distances are metres, far
// from the overflow and underflow that math.Hypot's scaling guards
// against, and the plain form costs well under half as much.
func length(v geom.Vec) float64 { return math.Sqrt(v.X*v.X + v.Y*v.Y) }

// atLeastMinRange clamps a distance to rf.MinRange. It equals
// math.Max(dist, rf.MinRange) for every input, NaN included, but it
// inlines, where math.Max on amd64 calls an assembly routine.
func atLeastMinRange(dist float64) float64 {
	if dist < rf.MinRange {
		return rf.MinRange
	}
	return dist
}

// channelsAtInto writes the full per-subcarrier channel of both transmit
// antennas at time t into h1 and h2, given the scene's path table: the
// moving channels plus each antenna's static sum.
func (d *Device) channelsAtInto(h1, h2 []complex128, t float64, paths []scatterPath) {
	d.movingChannelsInto(h1, h2, t, paths)
	for k := range h1 {
		h1[k] += d.static[0][k]
		h2[k] += d.static[1][k]
	}
}

// freeze synthesizes the scene frozen at nullTime into d.frozen and sets
// the stage-1 AGC gain that places the strongest un-nulled channel at
// AGCTargetFrac of ADC full scale. It needs the static sums.
func (d *Device) freeze() {
	nsub := len(d.lambdas)
	h := make([]complex128, 2*nsub)
	d.frozen = [2][]complex128{h[:nsub:nsub], h[nsub:]}
	d.channelsAtInto(d.frozen[0], d.frozen[1], nullTime, d.scatterPaths(nil))
	peak := 0.0
	for _, hs := range d.frozen {
		for _, x := range hs {
			if a := cAbs(x) * d.Cal.TxRefAmp; a > peak {
				peak = a
			}
		}
	}
	if peak <= 0 {
		peak = 1e-12
	}
	d.stage1Gain = d.capGain(d.Cal.AGCTargetFrac * d.Cal.ADCFullScale / peak)
}

// capGain limits the receive gain so amplified noise stays below 1/8 of
// ADC full scale (the LNA/AGC ceiling; after nulling the chain is
// noise-limited, not quantization-limited, matching §4.1.2).
func (d *Device) capGain(g float64) float64 {
	sigma := math.Sqrt(d.Cal.NoisePower)
	if sigma <= 0 {
		return g
	}
	if max := d.Cal.ADCFullScale / (8 * sigma); g > max {
		return max
	}
	return g
}

// phaseJitter advances the oscillator phase-noise state by one tracking
// sample and returns the snapshot's common rotation (shared by all
// subcarriers of that snapshot). The OU dynamics put the noise power at
// low frequencies, inside the human Doppler band.
func (d *Device) phaseJitter() complex128 {
	if d.Cal.PhaseNoiseStd <= 0 {
		return 1
	}
	tau := d.Cal.PhaseNoiseTau
	if tau <= 0 {
		tau = 0.3
	}
	alpha := d.Cal.SampleT / tau
	if alpha > 1 {
		alpha = 1
	}
	step := d.Cal.PhaseNoiseStd * math.Sqrt(2*alpha)
	d.oscPhase += -alpha*d.oscPhase + step*d.noise.Norm()
	s, c := math.Sincos(d.oscPhase)
	return complex(c, s)
}

// receiver is one measurement's receive chain with its per-value work
// hoisted into constants: the receive gain, the noise's standard
// deviation per rail after averaging, and the ADC's rail quantizer. A
// measurement builds one and codes every value through it (code).
type receiver struct {
	gain  float64
	std   float64
	coder sdr.Coder
}

// receiver returns the receive chain of a measurement at the given
// receive gain, averaging avg symbols per estimate.
func (d *Device) receiver(gain float64, avg int) receiver {
	avg = max(avg, 1)
	return receiver{
		gain: gain,
		// The average of avg i.i.d. complex Gaussian samples of power
		// NoisePower, drawn directly: its variance per rail is half of
		// NoisePower/avg.
		std:   math.Sqrt(d.Cal.NoisePower / float64(avg) / 2),
		coder: d.adc.Coder(),
	}
}

// code models one averaged, gained, quantized measurement of the
// received value x, the channel times the transmit amplitude: x is
// rotated by the snapshot's oscillator phase jitter, the averaged noise
// is drawn (real rail first), and the ADC codes the gained value. It
// returns the two rails' codes as one complex value, plus the saturation
// flag.
//
//wivi:hotpath
func (r *receiver) code(noise *rng.Stream, x, jitter complex128) (complex128, bool) {
	x *= jitter
	re, clipRe := r.coder.Code(r.gain * (real(x) + r.std*noise.Norm()))
	im, clipIm := r.coder.Code(r.gain * (imag(x) + r.std*noise.Norm()))
	return complex(re, im), clipRe || clipIm
}

// sound measures one sounding value x through rx and refers its codes
// back to the receiver input per unit of transmit amplitude txAmp. A
// sounding codes one value per subcarrier, so it divides by the gain and
// the amplitude in turn rather than hoisting a scale as a capture read
// does.
func (d *Device) sound(rx *receiver, x, jitter complex128, txAmp float64) (complex128, bool) {
	c, clipped := rx.code(d.noise, x, jitter)
	lsb := d.adc.LSB()
	return complex(real(c)*lsb/rx.gain/txAmp, imag(c)*lsb/rx.gain/txAmp), clipped
}

// MeasureSingle implements nulling.Sounder: transmit the preamble on one
// antenna at reference power and estimate the per-subcarrier channel.
func (d *Device) MeasureSingle(ant int) ([]complex128, error) {
	if ant != 1 && ant != 2 {
		return nil, fmt.Errorf("sim: MeasureSingle antenna %d (want 1 or 2)", ant)
	}
	h := d.frozen[ant-1]
	out := make([]complex128, len(h))
	rx := d.receiver(d.stage1Gain, d.Cal.EstAverages)
	jitter := d.phaseJitter()
	for k := range h {
		y, clipped := d.sound(&rx, h[k]*complex(d.Cal.TxRefAmp, 0), jitter, d.Cal.TxRefAmp)
		if clipped {
			return nil, fmt.Errorf("sim: ADC saturated during stage-1 sounding (subcarrier %d)", k)
		}
		out[k] = y
	}
	return out, nil
}

// MeasureCombined implements nulling.Sounder: both antennas transmit
// concurrently (antenna 2 precoded by p) at boosted power; the combined
// residual channel estimate is returned, normalized by the boost.
func (d *Device) MeasureCombined(p []complex128, boostDB float64) ([]complex128, error) {
	if len(p) != len(d.lambdas) {
		return nil, fmt.Errorf("sim: precoding length %d != %d subcarriers", len(p), len(d.lambdas))
	}
	amp, _ := d.tx.Output(complex(d.Cal.TxRefAmp*math.Pow(10, boostDB/20), 0))
	h1, h2 := d.frozen[0], d.frozen[1]
	// AGC: aim the residual at the target fraction of full scale.
	peak := 0.0
	for k := range h1 {
		if a := cAbs((h1[k] + p[k]*h2[k]) * amp); a > peak {
			peak = a
		}
	}
	if peak <= 0 {
		peak = 1e-15
	}
	gain := d.capGain(d.Cal.AGCTargetFrac * d.Cal.ADCFullScale / peak)
	out := make([]complex128, len(h1))
	rx := d.receiver(gain, d.Cal.EstAverages)
	jitter := d.phaseJitter()
	for k := range h1 {
		y, clipped := d.sound(&rx, (h1[k]+p[k]*h2[k])*amp, jitter, real(amp))
		if clipped {
			return nil, fmt.Errorf("sim: ADC saturated during combined sounding (subcarrier %d)", k)
		}
		out[k] = y
	}
	return out, nil
}

// MeasureCombinedFixedGain is MeasureCombined without AGC adaptation: the
// stage-1 gain is kept. This exposes the flash effect: boosting power
// without nulling saturates the ADC (§4.1.2). It returns the estimates
// and the fraction of subcarriers whose ADC samples clipped.
func (d *Device) MeasureCombinedFixedGain(p []complex128, boostDB float64) ([]complex128, float64, error) {
	if len(p) != len(d.lambdas) {
		return nil, 0, fmt.Errorf("sim: precoding length %d != %d subcarriers", len(p), len(d.lambdas))
	}
	amp, _ := d.tx.Output(complex(d.Cal.TxRefAmp*math.Pow(10, boostDB/20), 0))
	h1, h2 := d.frozen[0], d.frozen[1]
	out := make([]complex128, len(h1))
	clipped := 0
	rx := d.receiver(d.stage1Gain, d.Cal.EstAverages)
	jitter := d.phaseJitter()
	for k := range h1 {
		y, c := d.sound(&rx, (h1[k]+p[k]*h2[k])*amp, jitter, real(amp))
		if c {
			clipped++
		}
		out[k] = y
	}
	return out, float64(clipped) / float64(len(out)), nil
}

// Capture records n tracking samples starting at startT with the given
// precoding and boost: per subcarrier, the combined (nulled) channel is
// measured every SampleT with TrackAverages-symbol averaging. The result
// is indexed [subcarrier][sample]. An AGC gain is chosen once from the
// first sample's residual.
//
// Capture is exactly a StartCapture session read in one chunk, so batch
// and chunked captures of the same span produce bit-identical samples.
func (d *Device) Capture(p []complex128, boostDB float64, startT float64, n int) ([][]complex128, error) {
	s, err := d.StartCapture(p, boostDB, startT, n)
	if err != nil {
		return nil, err
	}
	return s.Read(n)
}

// StreamCapture implements core.FrontEnd's chunked capture: it runs a chunked
// capture of total samples, delivering consecutive chunks of up to
// chunk samples to emit as they are recorded. An emit error aborts the
// capture and is returned (the cancellation path). Concatenating the
// chunks reproduces Capture bit for bit. The chunk rows are reused
// between emit calls (as the core.FrontEnd contract allows), so a
// steady-state stream allocates nothing per chunk; emit receives the
// rows themselves, cut short in place for a short last chunk.
func (d *Device) StreamCapture(p []complex128, boostDB float64, startT float64, total, chunk int, emit func([][]complex128) error) error {
	if chunk < 1 {
		return fmt.Errorf("sim: chunk length %d", chunk)
	}
	s, err := d.StartCapture(p, boostDB, startT, total)
	if err != nil {
		return err
	}
	buf := rows(len(d.lambdas), chunk)
	for s.Remaining() > 0 {
		n := min(chunk, s.Remaining())
		if n < chunk {
			for k := range buf {
				buf[k] = buf[k][:n]
			}
		}
		if _, err := s.readInto(buf, n); err != nil {
			return err
		}
		if err := emit(buf); err != nil {
			return err
		}
	}
	return nil
}

// rows returns nsub rows of n samples cut from one backing array. Each
// row's capacity ends where the next row begins, so an append to one row
// reallocates it rather than writing into its neighbour.
func rows(nsub, n int) [][]complex128 {
	buf := make([]complex128, nsub*n)
	out := make([][]complex128, nsub)
	for k := range out {
		out[k] = buf[k*n : (k+1)*n : (k+1)*n]
	}
	return out
}

// CaptureSession is an in-progress chunked tracking capture. The device's
// oscillator and noise state advance per sample as chunks are read, so
// concatenating the chunks reproduces the one-shot Capture bit for bit,
// whatever the chunk sizes. A session owns the radio: interleaving other
// measurements (or a second session) before the session is drained
// corrupts both sample streams, which is why the core pipeline holds the
// device lock for the whole streamed capture.
type CaptureSession struct {
	d     *Device
	p     []complex128
	amp   complex128
	gain  float64
	start float64
	next  int
	total int
	// h1, h2 and paths are the synthesis scratch of the calling
	// goroutine: the per-sample channel of each transmit antenna and the
	// scene's path table (Device.scatterPaths), reused across samples
	// and Reads.
	h1, h2 []complex128
	paths  []scatterPath
}

// StartCapture opens a chunked capture of total samples starting at
// startT; successive Reads deliver consecutive sample spans. The AGC gain
// is chosen once from the first sample's residual, exactly as in Capture.
func (d *Device) StartCapture(p []complex128, boostDB float64, startT float64, total int) (*CaptureSession, error) {
	if len(p) != len(d.lambdas) {
		return nil, fmt.Errorf("sim: precoding length %d != %d subcarriers", len(p), len(d.lambdas))
	}
	if total <= 0 {
		return nil, fmt.Errorf("sim: capture length %d", total)
	}
	amp, _ := d.tx.Output(complex(d.Cal.TxRefAmp*math.Pow(10, boostDB/20), 0))
	nsub := len(d.lambdas)
	h := make([]complex128, 2*nsub)
	return &CaptureSession{
		d: d, p: p, amp: amp, start: startT, total: total,
		h1: h[:nsub:nsub], h2: h[nsub:],
	}, nil
}

// Remaining returns the number of samples the session has not yet read.
func (s *CaptureSession) Remaining() int { return s.total - s.next }

// Read synthesizes the next n samples of the capture, indexed
// [subcarrier][sample]. It fails when asked for more samples than remain.
// The returned rows are the caller's to keep; the chunked streaming path
// reads into reused buffers instead.
func (s *CaptureSession) Read(n int) ([][]complex128, error) {
	return s.readInto(nil, n)
}

// readInto synthesizes the next n samples into out (per-subcarrier rows
// of length n) and returns out; a nil out reads into new rows cut from
// one backing array (rows). It is the shared kernel behind Read and
// StreamCapture, so buffered and allocating reads produce bit-identical
// sample streams.
//
// It runs two passes (DESIGN §2). The synthesis pass is pure: it leaves
// each sample's noiseless residual h1 + p·h2 in out, fanned out over
// sample blocks. The radio pass then measures those residuals in sample
// order, so the noise stream and the oscillator phase advance exactly as
// they would if each sample were synthesized and measured in turn, and
// the output does not depend on the fan-out width.
func (s *CaptureSession) readInto(out [][]complex128, n int) ([][]complex128, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sim: chunk length %d", n)
	}
	if n > s.Remaining() {
		return nil, fmt.Errorf("sim: reading %d samples with %d remaining", n, s.Remaining())
	}
	if out == nil {
		out = rows(len(s.d.lambdas), n)
	}
	d := s.d
	s.synthesize(out, n)
	if s.gain == 0 {
		peak := 0.0
		for _, row := range out {
			if a := cAbs(row[0] * s.amp); a > peak {
				peak = a
			}
		}
		if peak <= 0 {
			peak = 1e-15
		}
		// Leave 16x headroom for humans approaching the device.
		s.gain = d.capGain(d.Cal.ADCFullScale / (16 * peak))
	}
	// The transmit amplitude is real (StartCapture), so it scales each
	// component of a residual, and one output scale, LSB/(gain·amp),
	// refers each code back to the receiver input and the transmit
	// amplitude.
	amp := real(s.amp)
	rx := d.receiver(s.gain, d.Cal.TrackAverages)
	scale := d.adc.LSB() / (s.gain * amp)
	for i := 0; i < n; i++ {
		jitter := d.phaseJitter()
		for _, row := range out {
			c, _ := rx.code(d.noise, complex(real(row[i])*amp, imag(row[i])*amp), jitter)
			row[i] = complex(real(c)*scale, imag(c)*scale)
		}
	}
	s.next += n
	return out, nil
}

// minSynthBlock is the fewest samples one synthesis worker takes. A read
// shorter than two blocks, such as the 25-sample stream hop, synthesizes
// on the calling goroutine.
const minSynthBlock = 16

// synthesize is a read's synthesis pass over its n samples. It splits
// them into up to synthWorkers contiguous blocks of at least
// minSynthBlock samples, each with its own channel scratch and path
// table; the calling goroutine takes the first block.
func (s *CaptureSession) synthesize(out [][]complex128, n int) {
	s.paths = s.d.scatterPaths(s.paths[:0])
	blocks := min(s.d.synthWorkers, n/minSynthBlock)
	if blocks < 2 {
		s.synthBlock(out, 0, n, s.h1, s.h2, s.paths)
		return
	}
	nsub, np := len(s.h1), len(s.paths)
	hs := make([]complex128, 2*nsub*(blocks-1))
	tables := make([]scatterPath, np*(blocks-1))
	var wg sync.WaitGroup
	for b := 1; b < blocks; b++ {
		h := hs[2*nsub*(b-1) : 2*nsub*b]
		paths := tables[np*(b-1) : np*b]
		copy(paths, s.paths)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.synthBlock(out, b*n/blocks, (b+1)*n/blocks, h[:nsub], h[nsub:], paths)
		}()
	}
	s.synthBlock(out, 0, n/blocks, s.h1, s.h2, s.paths)
	wg.Wait()
}

// synthBlock writes the noiseless residual h1 + p·h2 of the read's
// samples [lo, hi) into out[k][lo:hi], using h1, h2 and the path table
// paths as its own scratch. It reads only what a capture never changes
// (geometry, static sums, wavelength tables, the scene's pure
// trajectories), so blocks run concurrently.
//
//wivi:hotpath
func (s *CaptureSession) synthBlock(out [][]complex128, lo, hi int, h1, h2 []complex128, paths []scatterPath) {
	d := s.d
	for i := lo; i < hi; i++ {
		d.channelsAtInto(h1, h2, s.start+float64(s.next+i)*d.Cal.SampleT, paths)
		for k := range h1 {
			out[k][i] = h1[k] + s.p[k]*h2[k]
		}
	}
}

// CaptureRaw records n tracking samples of the un-nulled channel: only
// antenna 1 transmits at reference power and the receive gain stays at
// the stage-1 AGC setting, so the flash occupies most of the ADC range
// and moving-target returns ride on the few remaining LSBs. This is the
// operating regime of narrowband Doppler systems without nulling
// (§2.1 [30, 31]); internal/baseline builds its Doppler detector on it.
//
// It is a capture session like Capture's, with antenna 2 silent (p = 0,
// so each residual h1 + 0·h2 is exactly h1), no boost and the gain fixed
// in advance.
func (d *Device) CaptureRaw(startT float64, n int) ([][]complex128, error) {
	s, err := d.StartCapture(make([]complex128, len(d.lambdas)), 0, startT, n)
	if err != nil {
		return nil, err
	}
	s.gain = d.stage1Gain
	return s.Read(n)
}

func cAbs(x complex128) float64 { return math.Hypot(real(x), imag(x)) }
