package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"wivi"
	"wivi/internal/core"
	"wivi/internal/rng"
)

// edgeFloats are the values where encoding/json's float format turns:
// both zeros, each side of the 1e-6 and 1e21 cutoffs, one- and
// two-digit negative exponents, the subnormal and normal extremes, and
// integral values, which print without a fraction.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, math.Nextafter(1e-6, 0), 1e-10,
	1e21, -1e21, math.Nextafter(1e21, 0), 1e20, 1.2345678901234568e20,
	5e-324, -5e-324, math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, 1, -1, 2, 100, 12345678, 1 << 53, 1e15, 1e16,
	0.1, 1.0 / 3, -2.5e-300, 3.14159e100,
}

// edgeIndices are frame indices at the ends of int's range.
var edgeIndices = []int{0, 1, -1, 1 << 53, math.MaxInt, math.MinInt}

// codecFrames returns the frames the codec tests encode: one per edge
// value in each field, an empty and a nil power array, and random
// frames of 181 values drawn both as magnitudes spread over 600
// decades and as raw float64 bit patterns.
func codecFrames() []Frame {
	var frames []Frame
	for i, v := range edgeFloats {
		frames = append(frames,
			Frame{Index: edgeIndices[i%len(edgeIndices)], TimeS: v, Power: []float64{v}, LagMs: v},
			Frame{Index: i, TimeS: 0.16, Power: []float64{1, v, 2}, LagMs: 3})
	}
	frames = append(frames,
		Frame{Index: 3, TimeS: 1.12, Power: []float64{}, LagMs: 0.5},
		Frame{Index: 4, TimeS: 1.28, LagMs: 0.5},
		Frame{Index: 5, TimeS: 1.44, Power: edgeFloats, LagMs: 0.5})
	s := rng.New(32)
	for n := range 200 {
		power := make([]float64, 181)
		for k := range power {
			if n%2 == 0 {
				power[k] = math.Exp(s.Uniform(-690, 690))
				continue
			}
			for {
				v := math.Float64frombits(uint64(s.Intn(math.MaxInt))<<1 ^ uint64(s.Intn(2)))
				if !math.IsNaN(v) && !math.IsInf(v, 0) {
					power[k] = v
					break
				}
			}
		}
		frames = append(frames, Frame{Index: n, TimeS: s.Uniform(0, 10), Power: power, LagMs: s.Uniform(0, 400)})
	}
	return frames
}

// TestFrameCodecMatchesEncodingJSON holds appendFrameEvent to the bytes
// json.Encoder.Encode writes for the same event, and parseFrameEvent to
// the Frame json.Unmarshal decodes from that line, bit for bit. Only a
// nil power array, which encodes as null, is left to encoding/json.
func TestFrameCodecMatchesEncodingJSON(t *testing.T) {
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	var line []byte
	for _, f := range codecFrames() {
		want.Reset()
		if err := enc.Encode(StreamEvent{Type: EventFrame, Frame: &f}); err != nil {
			t.Fatal(err)
		}
		var err error
		line, err = appendFrameEvent(line[:0], &f)
		if err != nil {
			t.Fatalf("frame %d: %v", f.Index, err)
		}
		if !bytes.Equal(line, want.Bytes()) {
			t.Fatalf("frame %d:\n codec %s\n  json %s", f.Index, line, want.Bytes())
		}

		body := bytes.TrimSuffix(line, []byte("\n"))
		var ev StreamEvent
		if err := json.Unmarshal(body, &ev); err != nil {
			t.Fatal(err)
		}
		got, ok := parseFrameEvent(body)
		if ok != (f.Power != nil) {
			t.Fatalf("frame %d: parsed %v, want %v", f.Index, ok, f.Power != nil)
		}
		if ok && !sameFrame(got, *ev.Frame) {
			t.Fatalf("frame %d: parsed %+v, json.Unmarshal %+v", f.Index, got, *ev.Frame)
		}
	}
}

// sameFrame reports whether two frames are equal bit for bit, a nil
// power array differing from an empty one.
func sameFrame(a, b Frame) bool {
	if a.Index != b.Index || math.Float64bits(a.TimeS) != math.Float64bits(b.TimeS) ||
		math.Float64bits(a.LagMs) != math.Float64bits(b.LagMs) ||
		(a.Power == nil) != (b.Power == nil) || len(a.Power) != len(b.Power) {
		return false
	}
	for k := range a.Power {
		if math.Float64bits(a.Power[k]) != math.Float64bits(b.Power[k]) {
			return false
		}
	}
	return true
}

// TestFrameCodecRefusesNonFinite holds the encoder to refusing a NaN or
// an infinity in any field, as encoding/json does.
func TestFrameCodecRefusesNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, f := range []Frame{
			{TimeS: v, Power: []float64{1}},
			{Power: []float64{1, v, 2}},
			{Power: []float64{1}, LagMs: v},
		} {
			if _, err := json.Marshal(StreamEvent{Type: EventFrame, Frame: &f}); err == nil {
				t.Fatalf("encoding/json accepted %+v", f)
			}
			if _, err := appendFrameEvent(nil, &f); err == nil {
				t.Errorf("appendFrameEvent accepted %+v", f)
			}
		}
	}
}

// TestStreamEndsOnNonFiniteFrame serves a stream whose second frame
// carries a NaN: the client must read the first frame, then an internal
// error event, and never the third frame.
func TestStreamEndsOnNonFiniteFrame(t *testing.T) {
	frames := make(chan wivi.StreamFrame, 3)
	for i, p := range []float64{1, math.NaN(), 3} {
		frames <- wivi.StreamFrame{Index: i, Time: 0.16 * float64(i+1), Power: []float64{p, 2}}
	}
	close(frames)
	clk := core.NewFakeClock(time.Unix(0, 0), true)
	srv := newClockServer(t, clk, 0, func(context.Context, string, wivi.Request) (handle, error) {
		return &stubHandle{
			stream: &stubStream{frames: frames, window: 320 * time.Millisecond},
			wait: func(context.Context) (*wivi.Result, error) {
				t.Error("the handler waited for a result after a frame failed to encode")
				return &wivi.Result{}, nil
			},
		}, nil
	})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client := &Client{BaseURL: hs.URL, HTTPClient: hs.Client()}
	cs, err := client.TrackStream(context.Background(), TrackRequest{Device: "dev0", DurationS: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	var got []int
	for {
		fr, ok := cs.Next()
		if !ok {
			break
		}
		got = append(got, fr.Index)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("streamed frames %v, want [0]", got)
	}
	apiErr, ok := cs.Err().(*APIError)
	if !ok || apiErr.Code != CodeInternal {
		t.Fatalf("stream ended with %v, want an %q error event", cs.Err(), CodeInternal)
	}
}

// BenchmarkFrameCodec times one 181-angle frame of a simulated capture
// through encoding/json and through the frame codec, each way:
//
//	go test -run '^$' -bench BenchmarkFrameCodec -benchmem ./internal/serve
func BenchmarkFrameCodec(b *testing.B) {
	st, err := newWalkerDevice(b, 71, 0, false).TrackStream(context.Background(), 0.32)
	if err != nil {
		b.Fatal(err)
	}
	fr, ok := st.Next()
	if !ok {
		b.Fatal(st.Err())
	}
	f := Frame{Index: fr.Index, TimeS: fr.Time, Power: fr.Power, LagMs: 1.234567}
	line, err := appendFrameEvent(nil, &f)
	if err != nil {
		b.Fatal(err)
	}
	body := bytes.TrimSuffix(line, []byte("\n"))
	b.Logf("%d angles, %d bytes per line", len(f.Power), len(line))

	b.Run("encode/json", func(b *testing.B) {
		enc := json.NewEncoder(io.Discard)
		for b.Loop() {
			if err := enc.Encode(StreamEvent{Type: EventFrame, Frame: &f}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/codec", func(b *testing.B) {
		buf := make([]byte, 0, len(line))
		for b.Loop() {
			if buf, err = appendFrameEvent(buf[:0], &f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/json", func(b *testing.B) {
		for b.Loop() {
			var ev StreamEvent
			if err := json.Unmarshal(body, &ev); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/codec", func(b *testing.B) {
		for b.Loop() {
			if _, ok := parseFrameEvent(body); !ok {
				b.Fatal("the codec refused its own line")
			}
		}
	})
}
