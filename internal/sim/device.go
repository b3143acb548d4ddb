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

	scene   *Scene
	lambdas []float64 // per-subcarrier wavelengths
	lambda0 float64   // center wavelength
	// ampRatio[k] = lambdas[k]/lambda0 scales a path's center-wavelength
	// amplitude to subcarrier k; binStep = Δf/c is the change of 1/λ
	// from one subcarrier to the next (see addPathPairInto).
	ampRatio []float64
	binStep  float64
	noise    *rng.Stream
	adc      sdr.ADC
	tx       sdr.Transmitter

	// static per-antenna, per-subcarrier channel sums (geometry frozen).
	static [2][]complex128
	// nullTime freezes the moving scene during nulling (t = 0).
	nullTime float64
	// stage1Gain is the AGC gain used for un-nulled sounding; computed
	// lazily from the strongest static channel.
	stage1Gain float64
	// oscPhase is the oscillator phase-noise state (OU process).
	oscPhase float64
	// synthWorkers bounds the fan-out of a capture read's synthesis pass
	// (DeviceConfig.SynthWorkers).
	synthWorkers int
}

// DeviceConfig positions the device.
type DeviceConfig struct {
	// Standoff is the distance from the wall in meters. Default 1 (§7.3).
	Standoff float64
	// AntennaSpacing separates the two transmit antennas (the receive
	// antenna sits roughly midway). Default 0.7 m.
	AntennaSpacing float64
	// StandoffStagger offsets the second transmit antenna's standoff. A
	// perfectly symmetric layout is degenerate: the two flash channels
	// become identical, the precoder converges to p = -1, and the null
	// then also suppresses any mover on the symmetry axis. Physical rigs
	// are never symmetric; the default 0.094 m (~3 lambda/4) keeps the
	// flash-phase difference near pi so movers are never co-nulled.
	StandoffStagger float64
	// RxOffset shifts the receive antenna off the midline (same
	// asymmetry rationale). Default 0.05 m.
	RxOffset float64
	// Seed drives the device's noise stream.
	Seed int64
	// SynthWorkers bounds how many goroutines share the channel synthesis
	// of one capture read, each taking a contiguous block of samples
	// (DESIGN §2). 0 means GOMAXPROCS; 1 keeps synthesis on the calling
	// goroutine. The width never changes a sample.
	SynthWorkers int
}

// NewDevice builds a device in front of the scene's wall.
func NewDevice(sc *Scene, cal Calibration, cfg DeviceConfig) (*Device, error) {
	if err := cal.Validate(); err != nil {
		return nil, err
	}
	if cfg.Standoff == 0 {
		cfg.Standoff = 1
	}
	if cfg.Standoff < 0 {
		return nil, fmt.Errorf("sim: negative standoff %v", cfg.Standoff)
	}
	if cfg.AntennaSpacing == 0 {
		cfg.AntennaSpacing = 0.7
	}
	if cfg.AntennaSpacing <= 0 {
		return nil, fmt.Errorf("sim: non-positive antenna spacing %v", cfg.AntennaSpacing)
	}
	if cfg.StandoffStagger == 0 {
		cfg.StandoffStagger = 0.094
	}
	if cfg.RxOffset == 0 {
		cfg.RxOffset = 0.05
	}
	y := sc.WallY - cfg.Standoff
	up := geom.Vec{X: 0, Y: 1}
	d := &Device{
		Tx1:   rf.NewDirectional(geom.Point{X: -cfg.AntennaSpacing / 2, Y: y}, up),
		Tx2:   rf.NewDirectional(geom.Point{X: +cfg.AntennaSpacing / 2, Y: y + cfg.StandoffStagger}, up),
		Rx:    rf.NewDirectional(geom.Point{X: cfg.RxOffset, Y: y}, up),
		Cal:   cal,
		scene: sc,
		noise: rng.DeriveSeed(cfg.Seed^sc.Seed, "device-noise"),
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
	d.binStep = cal.BandwidthHz / float64(cal.NumSubcarriers) / rf.C
	d.static[0] = d.computeStatic(1)
	d.static[1] = d.computeStatic(2)
	return d, nil
}

// Scene returns the scene the device observes.
func (d *Device) Scene() *Scene { return d.scene }

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
// reflection, and the static clutter.
func (d *Device) computeStatic(ant int) []complex128 {
	txa := d.txAntenna(ant)
	out := make([]complex128, len(d.lambdas))
	for k, lambda := range d.lambdas {
		var h complex128
		// Direct leakage between the antennas (attenuated by the
		// directional patterns, §4.1).
		h += rf.DirectPath(txa, d.Rx, lambda, 1).Channel(lambda)
		if d.scene.HasWall() {
			// The flash: specular reflection off the wall face.
			h += rf.MirrorPath(txa, d.Rx, d.scene.WallY, lambda, d.scene.Wall.Reflectivity).Channel(lambda)
			// Back wall of the room: weaker mirror behind two wall
			// traversals.
			h += rf.MirrorPath(txa, d.Rx, d.scene.Room.Max.Y, lambda,
				0.4*d.scene.TwoWayWallAmp()).Channel(lambda)
		}
		for _, c := range d.scene.Clutter {
			extra := 1.0
			if c.BehindWall {
				extra = d.scene.TwoWayWallAmp()
			}
			h += rf.ScatterPath(txa, d.Rx, c.Pos, lambda, c.RCS, extra).Channel(lambda)
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

// movingChannelsInto writes the per-subcarrier channel contribution of
// all humans at time t for transmit antennas 1 and 2 into h1 and h2
// (length NumSubcarriers, zeroed here): the direct through-wall return
// of every body part plus its two side-wall bounce images. amps holds
// each part's amplitude factor (partAmps). It is the tracking capture's
// per-sample kernel, run in one pass for both antennas: each part's
// position, and each scatter point's receive distance and receive gain,
// are computed once and shared by the two transmit paths (DESIGN §2).
//
//wivi:hotpath
func (d *Device) movingChannelsInto(h1, h2 []complex128, t float64, amps []float64) {
	clear(h1)
	clear(h2)
	east := d.scene.Room.Max.X
	west := d.scene.Room.Min.X
	i := 0
	for _, h := range d.scene.Humans {
		for _, part := range h.Parts {
			pos := part.Traj.At(t)
			amp := amps[i]
			i++
			d.addScatterInto(h1, h2, pos, amp)
			d.addScatterInto(h1, h2, geom.Point{X: 2*east - pos.X, Y: pos.Y}, amp*sideWallReflectivity)
			d.addScatterInto(h1, h2, geom.Point{X: 2*west - pos.X, Y: pos.Y}, amp*sideWallReflectivity)
		}
	}
}

// partAmps appends to dst, for every body part of every human in scene
// order, the amplitude factor the part's paths from both antennas share:
// the radar-equation factor sqrt(rcs/4π)·λ0/4π (rf.ScatterPath) times the
// two-way wall transmission. Neither changes within a read, so a read
// computes the table once and the kernel looks each factor up.
func (d *Device) partAmps(dst []float64) []float64 {
	n := 0
	for _, h := range d.scene.Humans {
		n += len(h.Parts)
	}
	dst = slices.Grow(dst, n)
	wallAmp := d.scene.TwoWayWallAmp()
	for _, h := range d.scene.Humans {
		for _, part := range h.Parts {
			rcsAmp := math.Sqrt(part.RCS/(4*math.Pi)) * d.lambda0 / (4 * math.Pi)
			dst = append(dst, rcsAmp*wallAmp)
		}
	}
	return dst
}

// addScatterInto adds one point scatterer's bistatic path from each
// transmit antenna to the receiver: amp/(d1·d2) times both antenna
// gains (the radar equation of rf.ScatterPath at the center
// wavelength), scaled per subcarrier by λk/λ0. The receive leg is
// evaluated once for both antennas, and each path converts its summed
// dB gain to amplitude once.
//
//wivi:hotpath
func (d *Device) addScatterInto(h1, h2 []complex128, at geom.Point, amp float64) {
	dir := at.Sub(d.Rx.Pos)
	rxDB := d.Rx.PowerGainDBAlong(dir)
	d2 := atLeastMinRange(length(dir))
	amp /= d2
	dir = at.Sub(d.Tx1.Pos)
	d1 := atLeastMinRange(length(dir))
	amp1 := rf.AmplitudeOfDB(d.Tx1.PowerGainDBAlong(dir)+rxDB) * amp / d1
	len1 := d1 + d2
	dir = at.Sub(d.Tx2.Pos)
	d1 = atLeastMinRange(length(dir))
	d.addPathPairInto(h1, h2, amp1, len1, rf.AmplitudeOfDB(d.Tx2.PowerGainDBAlong(dir)+rxDB)*amp/d1, d1+d2)
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

// addPathPairInto adds one path from each transmit antenna, with
// center-wavelength amplitudes amp1 and amp2 and lengths len1 and len2,
// to every subcarrier of h1 and h2. The simulated bins are evenly spaced
// in frequency, so a path's phase -2π·length/λk steps by the same
// δ = -2π·length·Δf/c from bin to bin: the channel is
// amp·(λk/λ0)·e^{jφ0}·(e^{jδ})^k, two Sincos calls and a complex
// multiply per bin instead of one Sincos per bin. The two paths' phasor
// recurrences are independent, so one loop advances both. Each step of
// a recursion rounds by ~ε, so bin k is within ~k·ε of the direct
// e^{-j2π·length/λk}, far below the ADC's resolution (DESIGN §2).
//
//wivi:hotpath
func (d *Device) addPathPairInto(h1, h2 []complex128, amp1, len1, amp2, len2 float64) {
	s, c := math.Sincos(-2 * math.Pi * len1 / d.lambdas[0])
	z1 := complex(amp1*c, amp1*s)
	s, c = math.Sincos(-2 * math.Pi * len1 * d.binStep)
	step1 := complex(c, s)
	s, c = math.Sincos(-2 * math.Pi * len2 / d.lambdas[0])
	z2 := complex(amp2*c, amp2*s)
	s, c = math.Sincos(-2 * math.Pi * len2 * d.binStep)
	step2 := complex(c, s)
	r := d.ampRatio
	h1 = h1[:len(r)]
	h2 = h2[:len(r)]
	h1[0] += complex(r[0]*real(z1), r[0]*imag(z1))
	h2[0] += complex(r[0]*real(z2), r[0]*imag(z2))
	for k := 1; k < len(r); k++ {
		z1 *= step1
		z2 *= step2
		h1[k] += complex(r[k]*real(z1), r[k]*imag(z1))
		h2[k] += complex(r[k]*real(z2), r[k]*imag(z2))
	}
}

// channelsAt returns the full per-subcarrier channel of both transmit
// antennas at time t.
func (d *Device) channelsAt(t float64) (h1, h2 []complex128) {
	h1 = make([]complex128, len(d.lambdas))
	h2 = make([]complex128, len(d.lambdas))
	var amps [16]float64 // room for five walkers' parts without a heap table
	d.channelsAtInto(h1, h2, t, d.partAmps(amps[:0]))
	return h1, h2
}

// channelsAtInto is channelsAt computing into h1 and h2, given the
// parts' amplitude factors: the moving channels plus each antenna's
// static sum.
func (d *Device) channelsAtInto(h1, h2 []complex128, t float64, amps []float64) {
	d.movingChannelsInto(h1, h2, t, amps)
	for k := range h1 {
		h1[k] += d.static[0][k]
		h2[k] += d.static[1][k]
	}
}

// ensureStage1Gain computes the AGC gain that places the strongest
// un-nulled channel at AGCTargetFrac of ADC full scale.
func (d *Device) ensureStage1Gain() float64 {
	if d.stage1Gain > 0 {
		return d.stage1Gain
	}
	peak := 0.0
	h1, h2 := d.channelsAt(d.nullTime)
	for _, hs := range [][]complex128{h1, h2} {
		for _, h := range hs {
			if a := cAbs(h) * d.Cal.TxRefAmp; a > peak {
				peak = a
			}
		}
	}
	if peak <= 0 {
		peak = 1e-12
	}
	d.stage1Gain = d.Cal.AGCTargetFrac * d.Cal.ADCFullScale / peak
	d.stage1Gain = d.capGain(d.stage1Gain)
	return d.stage1Gain
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
	return complex(math.Cos(d.oscPhase), math.Sin(d.oscPhase))
}

// captureEstimate models one averaged, gained, quantized measurement of a
// complex signal amplitude: the signal is rotated by the snapshot's
// oscillator phase jitter, the averaged noise is drawn directly (the
// average of `avg` i.i.d. complex Gaussian samples), then the ADC
// quantizes the gained value. Returns the estimate referred to the
// receiver input, plus the saturation flag.
func (d *Device) captureEstimate(signal, jitter complex128, gain float64, avg int) (complex128, bool) {
	if avg < 1 {
		avg = 1
	}
	n := d.noise.ComplexGaussian(d.Cal.NoisePower / float64(avg))
	q, clipped := d.adc.Quantize(complex(gain, 0) * (signal*jitter + n))
	return q / complex(gain, 0), clipped
}

// MeasureSingle implements nulling.Sounder: transmit the preamble on one
// antenna at reference power and estimate the per-subcarrier channel.
func (d *Device) MeasureSingle(ant int) ([]complex128, error) {
	if ant != 1 && ant != 2 {
		return nil, fmt.Errorf("sim: MeasureSingle antenna %d (want 1 or 2)", ant)
	}
	gain := d.ensureStage1Gain()
	h1, h2 := d.channelsAt(d.nullTime)
	h := h1
	if ant == 2 {
		h = h2
	}
	out := make([]complex128, len(h))
	jitter := d.phaseJitter()
	for k := range h {
		y, clipped := d.captureEstimate(h[k]*complex(d.Cal.TxRefAmp, 0), jitter, gain, d.Cal.EstAverages)
		if clipped {
			return nil, fmt.Errorf("sim: ADC saturated during stage-1 sounding (subcarrier %d)", k)
		}
		out[k] = y / complex(d.Cal.TxRefAmp, 0)
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
	h1, h2 := d.channelsAt(d.nullTime)
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
	jitter := d.phaseJitter()
	for k := range h1 {
		y, clipped := d.captureEstimate((h1[k]+p[k]*h2[k])*amp, jitter, gain, d.Cal.EstAverages)
		if clipped {
			return nil, fmt.Errorf("sim: ADC saturated during combined sounding (subcarrier %d)", k)
		}
		out[k] = y / amp
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
	gain := d.ensureStage1Gain()
	amp, _ := d.tx.Output(complex(d.Cal.TxRefAmp*math.Pow(10, boostDB/20), 0))
	h1, h2 := d.channelsAt(d.nullTime)
	out := make([]complex128, len(h1))
	clipped := 0
	jitter := d.phaseJitter()
	for k := range h1 {
		y, c := d.captureEstimate((h1[k]+p[k]*h2[k])*amp, jitter, gain, d.Cal.EstAverages)
		if c {
			clipped++
		}
		out[k] = y / amp
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

// StreamCapture implements core.StreamFrontEnd: it runs a chunked
// capture of total samples, delivering consecutive chunks of up to
// chunk samples to emit as they are recorded. An emit error aborts the
// capture and is returned (the cancellation path). Concatenating the
// chunks reproduces Capture bit for bit. The chunk buffers are reused
// between emit calls (as the StreamFrontEnd contract allows), so a
// steady-state stream allocates nothing per chunk.
func (d *Device) StreamCapture(p []complex128, boostDB float64, startT float64, total, chunk int, emit func([][]complex128) error) error {
	if chunk < 1 {
		return fmt.Errorf("sim: chunk length %d", chunk)
	}
	s, err := d.StartCapture(p, boostDB, startT, total)
	if err != nil {
		return err
	}
	buf := make([][]complex128, len(d.lambdas))
	views := make([][]complex128, len(d.lambdas))
	for k := range buf {
		buf[k] = make([]complex128, chunk)
	}
	for s.Remaining() > 0 {
		c := chunk
		if c > s.Remaining() {
			c = s.Remaining()
		}
		for k := range views {
			views[k] = buf[k][:c]
		}
		if err := s.readInto(views, c); err != nil {
			return err
		}
		if err := emit(views); err != nil {
			return err
		}
	}
	return nil
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
	// h1, h2 hold the per-sample channel of each transmit antenna for
	// synthesis on the calling goroutine, reused across samples and Reads.
	h1, h2 []complex128
	// amps is the read's part amplitude table (Device.partAmps), reused
	// across Reads.
	amps []float64
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
// The returned buffers are the caller's to keep; the chunked streaming
// path uses readInto with reused buffers instead.
func (s *CaptureSession) Read(n int) ([][]complex128, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sim: chunk length %d", n)
	}
	out := make([][]complex128, len(s.d.lambdas))
	for k := range out {
		out[k] = make([]complex128, n)
	}
	if err := s.readInto(out, n); err != nil {
		return nil, err
	}
	return out, nil
}

// readInto synthesizes the next n samples into out (per-subcarrier rows
// of length n) — the shared kernel behind Read and StreamCapture, so
// buffered and allocating reads produce bit-identical sample streams.
//
// It runs two passes (DESIGN §2). The synthesis pass is pure: it leaves
// each sample's noiseless residual h1 + p·h2 in out, fanned out over
// sample blocks. The radio pass then measures those residuals in sample
// order, so the noise stream and the oscillator phase advance exactly as
// they would if each sample were synthesized and measured in turn, and
// the output does not depend on the fan-out width.
func (s *CaptureSession) readInto(out [][]complex128, n int) error {
	if n <= 0 {
		return fmt.Errorf("sim: chunk length %d", n)
	}
	if n > s.Remaining() {
		return fmt.Errorf("sim: reading %d samples with %d remaining", n, s.Remaining())
	}
	d := s.d
	s.amps = d.partAmps(s.amps[:0])
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
	for i := 0; i < n; i++ {
		jitter := d.phaseJitter()
		for _, row := range out {
			y, _ := d.captureEstimate(row[i]*s.amp, jitter, s.gain, d.Cal.TrackAverages)
			row[i] = y / s.amp
		}
	}
	s.next += n
	return nil
}

// minSynthBlock is the fewest samples one synthesis worker takes. A read
// shorter than two blocks, such as the 25-sample stream hop, synthesizes
// on the calling goroutine.
const minSynthBlock = 16

// synthesize is a read's synthesis pass over its n samples. It splits
// them into up to synthWorkers contiguous blocks of at least
// minSynthBlock samples, each with its own channel scratch; the calling
// goroutine takes the first block.
func (s *CaptureSession) synthesize(out [][]complex128, n int) {
	blocks := min(s.d.synthWorkers, n/minSynthBlock)
	if blocks < 2 {
		s.synthBlock(out, 0, n, s.h1, s.h2)
		return
	}
	nsub := len(s.h1)
	scratch := make([]complex128, 2*nsub*(blocks-1))
	var wg sync.WaitGroup
	for b := 1; b < blocks; b++ {
		h := scratch[2*nsub*(b-1) : 2*nsub*b]
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.synthBlock(out, b*n/blocks, (b+1)*n/blocks, h[:nsub], h[nsub:])
		}()
	}
	s.synthBlock(out, 0, n/blocks, s.h1, s.h2)
	wg.Wait()
}

// synthBlock writes the noiseless residual h1 + p·h2 of the read's
// samples [lo, hi) into out[k][lo:hi], using h1 and h2 as scratch. It
// reads only what a capture never changes (geometry, static sums,
// wavelength tables, the scene's pure trajectories), so blocks run
// concurrently.
//
//wivi:hotpath
func (s *CaptureSession) synthBlock(out [][]complex128, lo, hi int, h1, h2 []complex128) {
	d := s.d
	for i := lo; i < hi; i++ {
		d.channelsAtInto(h1, h2, s.start+float64(s.next+i)*d.Cal.SampleT, s.amps)
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
	s.gain = d.ensureStage1Gain()
	return s.Read(n)
}

func cAbs(x complex128) float64 { return math.Hypot(real(x), imag(x)) }
