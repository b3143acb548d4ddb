package main

// The four workloads. Each is a device fleet plus a request schedule:
// a closed loop (each client sends its next request when the previous
// one completes) or an open loop (requests are due at seeded arrival
// instants whatever the system does). Scenes, arrivals and the mix order
// are derived from the run seed only; the system under test sees just
// the generated requests. README.md gives the rationale for each.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"wivi"
	"wivi/internal/isar"
	"wivi/internal/rng"
	"wivi/internal/sim"
)

// kind is the shape of one request.
type kind int

const (
	kindTrack   kind = iota // batch tracking: one response with the frame count
	kindStream              // streamed tracking: frames arrive while the capture runs
	kindGesture             // batch gesture decode of the "01" message
)

func (k kind) String() string {
	switch k {
	case kindStream:
		return "stream"
	case kindGesture:
		return "gesture"
	}
	return "track"
}

// request is one request of a schedule.
type request struct {
	kind   kind
	device int     // index into workload.devices
	dur    float64 // capture length in seconds
	// due is the open-loop send instant as an offset from the start of
	// its measured part; closed-loop requests are due when their client
	// becomes free.
	due time.Duration
}

// deviceSpec is one device of a workload's fleet.
type deviceSpec struct {
	name    string
	walkers int  // people moving at will behind the wall
	gesture bool // one person at 3 m sending the gesture message "01"
	paced   bool // samples are delivered at the radio's real cadence
}

// gestureBits is the message every gesture scene sends.
var gestureBits = []wivi.Bit{wivi.Bit0, wivi.Bit1}

const (
	gestureMessage   = "01"
	gestureDistanceM = 3
	// oneFrameS is the shortest capture: one 100-sample window at 3.2 ms.
	oneFrameS = 0.32
	// mixedRate is serve_mixed's arrival rate in requests per second:
	// a quarter of the closed-loop capacity of its mix (20-22 requests
	// per second with two clients on a 2-vCPU host; README.md).
	mixedRate = 5.0
	// gestureSceneSeed seeds every gesture scene. The decoder misreads
	// some seeded scenes at 3 m through a hollow wall, so gesture scenes
	// use one whose first 60 captures all decode "01", which no run
	// exceeds.
	gestureSceneSeed = 1
)

// halfHop is half the ISAR hop of 25 samples at 3.2 ms.
const halfHop = 40 * time.Millisecond

// parts is how many consecutive parts a run's measured time is split
// into; a run reports the median over its parts. A traced run
// alternates untraced and traced parts, so it is even.
const parts = 8

// workload is one benchmark workload, fully specified for a run length.
type workload struct {
	name string
	// http routes the load through serve.Server and pool.Router over
	// loopback HTTP; otherwise it goes straight to a wivi.Engine.
	http bool
	// primary is the end-to-end metric trace.overhead_frac compares
	// between the traced and the untraced parts.
	primary string
	devices []deviceSpec
	// motionS is how long every walker keeps moving; it covers the
	// longest capture of the workload.
	motionS float64
	clients int
	// partS is the length of one measured part in seconds.
	partS float64
	// next is the closed-loop schedule: the i-th request in send order,
	// or false when the clients are done. untilDeadline stops the loop
	// when the part's seconds have passed.
	next          func(i int) (request, bool)
	untilDeadline bool
	// arrivals is the open-loop schedule of part n for a seed; nil for
	// closed loops.
	arrivals func(seed int64, n int) []request
	// warm is the request every set-up serves before timing starts.
	warm request
	// chain is the request mix the chain trace replays one at a time.
	chain []request
	// pairS is the capture length of the fresh batch-vs-stream pair.
	pairS float64
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"track_batch", "paced_stream", "serve_mixed", "serve_short"}

// sixScenes is the shared fleet: 1, 1, 2, 2, 3 and 3 walkers, because
// the signal-subspace size drives the eig and MUSIC cost.
func sixScenes() []deviceSpec {
	var out []deviceSpec
	for i, n := range []int{1, 1, 2, 2, 3, 3} {
		out = append(out, deviceSpec{name: fmt.Sprintf("d%d", i), walkers: n})
	}
	return out
}

// newWorkload returns the named workload for a run that measures for
// the given number of seconds.
func newWorkload(name string, seconds float64) (*workload, error) {
	partS := seconds / parts
	var w *workload
	switch name {
	case "track_batch":
		const capS = 4
		devs := sixScenes()
		w = &workload{primary: "frames_per_s", devices: devs, motionS: capS, clients: 2, partS: partS,
			untilDeadline: true, pairS: capS}
		w.next = func(i int) (request, bool) {
			return request{kind: kindTrack, device: i % len(devs), dur: capS}, true
		}
		w.warm = request{kind: kindTrack, dur: capS}
		for d := range devs {
			w.chain = append(w.chain, request{kind: kindTrack, device: d, dur: capS})
		}

	case "paced_stream":
		devs := []deviceSpec{
			{name: "p0", walkers: 1, paced: true},
			{name: "p1", walkers: 3, paced: true},
		}
		w = &workload{http: true, primary: "cpu_ms_per_frame", devices: devs, motionS: partS,
			clients: len(devs), partS: partS, pairS: 1}
		// The second radio starts half a hop after the first, as two
		// independent radios are out of phase on average; in phase, their
		// frames would always contend for the CPUs at the same instant.
		w.arrivals = func(int64, int) []request {
			return []request{
				{kind: kindStream, device: 0, dur: partS},
				{kind: kindStream, device: 1, dur: partS, due: halfHop},
			}
		}
		w.warm = request{kind: kindStream, dur: oneFrameS}
		for d := range devs {
			w.chain = append(w.chain, request{kind: kindStream, device: d, dur: partS})
		}

	case "serve_mixed":
		const capS = 2
		devs := append(sixScenes(), deviceSpec{name: "g0", gesture: true})
		gestureS, err := gestureDuration()
		if err != nil {
			return nil, err
		}
		g := len(devs) - 1
		w = &workload{http: true, primary: "request_p50_ms", devices: devs, motionS: capS,
			clients: 2, partS: partS, pairS: capS}
		w.arrivals = func(seed int64, n int) []request {
			return mixedArrivals(seed, n, partS, mixedRate, g, capS, gestureS)
		}
		w.warm = request{kind: kindTrack, dur: capS}
		w.chain = []request{
			{kind: kindTrack, device: 0, dur: capS},
			{kind: kindTrack, device: 2, dur: capS},
			{kind: kindTrack, device: 4, dur: capS},
			{kind: kindGesture, device: g, dur: gestureS},
		}

	case "serve_short":
		devs := sixScenes()
		w = &workload{http: true, primary: "requests_per_s", devices: devs, motionS: oneFrameS,
			clients: 2, partS: partS, untilDeadline: true, pairS: oneFrameS}
		w.next = func(i int) (request, bool) {
			return request{kind: kindTrack, device: i % len(devs), dur: oneFrameS}, true
		}
		w.warm = request{kind: kindTrack, dur: oneFrameS}
		// One-frame requests give few frames each, so the chain replays
		// four rounds of the fleet.
		for round := 0; round < 4; round++ {
			for d := range devs {
				w.chain = append(w.chain, request{kind: kindTrack, device: d, dur: oneFrameS})
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	w.name = name
	return w, nil
}

// closedLoop reports whether the workload's clients wait for each reply
// before sending again, so that the system sets the pace.
func (w *workload) closedLoop() bool { return w.arrivals == nil }

// paced reports whether the workload's devices deliver samples at the
// radio's real cadence, so that the radio sets its requests' wall time.
func (w *workload) paced() bool {
	for _, d := range w.devices {
		if d.paced {
			return true
		}
	}
	return false
}

// gestureDuration is how long the "01" message takes to send, which is
// the capture length of a gesture request.
func gestureDuration() (float64, error) {
	return wivi.NewScene(wivi.SceneOptions{Wall: wivi.HollowWall}).AddGestureSender(gestureMessageSpec())
}

func gestureMessageSpec() wivi.GestureMessage {
	return wivi.GestureMessage{Bits: gestureBits, Distance: gestureDistanceM}
}

// mixedArrivals draws part n of serve_mixed's open-loop schedule:
// round(rate·seconds) requests whose send instants are the order
// statistics of uniform draws over the part, which is a Poisson process
// of that rate conditioned on its count. Fixing the count keeps the
// offered load identical across seeds. The mix is exactly 60% batch tracks and 25% streamed tracks
// (round-robin over the tracking devices, in arrival order) and 15%
// gesture decodes on the gesture device, shuffled by the seed.
func mixedArrivals(seed int64, n int, seconds, rate float64, gestureDev int, trackS, gestureS float64) []request {
	s := rng.DeriveSeed(seed, fmt.Sprintf("serve_mixed-arrivals-%d", n))
	count := int(math.Round(rate * seconds))
	nStream := int(math.Round(0.25 * float64(count)))
	nGesture := int(math.Round(0.15 * float64(count)))
	kinds := make([]kind, count)
	for i := range kinds {
		switch {
		case i < nStream:
			kinds[i] = kindStream
		case i < nStream+nGesture:
			kinds[i] = kindGesture
		default:
			kinds[i] = kindTrack
		}
	}
	s.Shuffle(count, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	due := make([]float64, count)
	for i := range due {
		due[i] = s.Uniform(0, seconds)
	}
	sort.Float64s(due)
	out := make([]request, count)
	tracking := 0
	for i, k := range kinds {
		r := request{kind: k, dur: trackS, due: time.Duration(due[i] * float64(time.Second))}
		if k == kindGesture {
			r.device, r.dur = gestureDev, gestureS
		} else {
			r.device = tracking % gestureDev
			tracking++
		}
		out[i] = r
	}
	return out
}

// sceneSeed is the scene seed of device i of a fleet for a run seed:
// distinct per device and per run seed, identical across runs with the
// same seed; gesture scenes use gestureSceneSeed.
func sceneSeed(devs []deviceSpec, seed int64, i int) int64 {
	if devs[i].gesture {
		return gestureSceneSeed
	}
	return int64(rng.DeriveSeed(seed, fmt.Sprintf("scene-%d", i)).Intn(1<<30)) + 1
}

// expectedFrames is the frame count of a capture of dur seconds at the
// default radio and ISAR geometry: one frame per hop once the first
// window has filled.
func expectedFrames(dur float64) int {
	ic := isar.DefaultConfig()
	n := int(dur / sim.DefaultCalibration().SampleT)
	if n < ic.Window {
		return 0
	}
	return (n-ic.Window)/ic.Hop + 1
}
