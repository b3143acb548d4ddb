package serve

// The frame codec: streamed frame events are written and read by hand
// rather than through encoding/json's reflection, because a frame line
// is a full angle spectrum and one goes out per window. The writer
// produces exactly the bytes json.Encoder.Encode produces for the same
// StreamEvent, so the wire does not change; the reader accepts only a
// line in that canonical shape and leaves every other line, of any
// event type, to encoding/json.

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// The fixed parts of a canonical frame line, in order:
//
//	{"type":"frame","frame":{"index":I,"time_s":T,"power":[P,…],"lag_ms":L}}
const (
	frameHead  = `{"type":"` + EventFrame + `","frame":{"index":`
	frameTime  = `,"time_s":`
	framePower = `,"power":`
	frameLag   = `,"lag_ms":`
	frameTail  = `}}`
)

// appendFrameEvent appends f as the NDJSON line, newline included, that
// json.Encoder.Encode writes for StreamEvent{Type: EventFrame, Frame: f}.
// A NaN or infinite value is refused, as encoding/json refuses it.
func appendFrameEvent(b []byte, f *Frame) ([]byte, error) {
	ok := finite(f.TimeS) && finite(f.LagMs)
	for _, v := range f.Power {
		ok = ok && finite(v)
	}
	if !ok {
		return b, fmt.Errorf("serve: frame %d holds a NaN or infinite value, which JSON cannot carry", f.Index)
	}
	b = append(b, frameHead...)
	b = strconv.AppendInt(b, int64(f.Index), 10)
	b = append(b, frameTime...)
	b = appendFloat(b, f.TimeS)
	b = append(b, framePower...)
	if f.Power == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range f.Power {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendFloat(b, v)
		}
		b = append(b, ']')
	}
	b = append(b, frameLag...)
	b = appendFloat(b, f.LagMs)
	return append(b, frameTail+"\n"...), nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// appendFloat appends the finite v as encoding/json formats a float64:
// the shortest decimal that parses back to v, in 'e' form below 1e-6
// and from 1e21 on, with a one-digit negative exponent unpadded.
func appendFloat(b []byte, v float64) []byte {
	abs := math.Abs(v)
	if abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(b, v, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, v, 'e', -1, 64)
	if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// parseFrameEvent decodes line when it is a frame event in the
// canonical shape appendFrameEvent writes, and reports false for any
// other line. Each number must match JSON's number grammar before
// strconv parses it, since strconv alone also takes forms such as +1,
// Inf, 0x1p-2 and 1_0. So a line it accepts is one encoding/json
// decodes to the same Frame; the caller hands every other line to
// encoding/json, which decides what it means.
func parseFrameEvent(line []byte) (Frame, bool) {
	var f Frame
	rest, ok := bytes.CutPrefix(line, []byte(frameHead))
	if !ok {
		return f, false
	}
	num, rest, ok := cutNumber(rest, []byte(frameTime))
	if !ok {
		return f, false
	}
	if f.Index, ok = parseInt(num); !ok {
		return f, false
	}
	if num, rest, ok = cutNumber(rest, []byte(framePower+"[")); !ok {
		return f, false
	}
	if f.TimeS, ok = parseFloat(num); !ok {
		return f, false
	}
	if f.Power, rest, ok = parsePower(rest); !ok {
		return f, false
	}
	if num, rest, ok = cutNumber(rest, []byte(frameTail)); !ok || len(rest) != 0 {
		return f, false
	}
	if f.LagMs, ok = parseFloat(num); !ok {
		return f, false
	}
	return f, true
}

// parsePower decodes the body of the power array, which b starts just
// inside, through the lag_ms key that follows it. The array is sized
// from the commas before the first closing bracket; entries that do
// not fill it exactly, or fail to parse, reject the line.
func parsePower(b []byte) (power []float64, rest []byte, ok bool) {
	if rest, ok = bytes.CutPrefix(b, []byte("]"+frameLag)); ok {
		return []float64{}, rest, true
	}
	end := bytes.IndexByte(b, ']')
	if end < 0 {
		return nil, nil, false
	}
	power = make([]float64, bytes.Count(b[:end], []byte(","))+1)
	rest = b
	for i := range power {
		sep := []byte(",")
		if i == len(power)-1 {
			sep = []byte("]" + frameLag)
		}
		var num []byte
		if num, rest, ok = cutNumber(rest, sep); !ok {
			return nil, nil, false
		}
		if power[i], ok = parseFloat(num); !ok {
			return nil, nil, false
		}
	}
	return power, rest, true
}

// cutNumber splits b after the JSON number it starts with, which sep
// must follow; rest is what follows sep.
func cutNumber(b, sep []byte) (num, rest []byte, ok bool) {
	n := numberLen(b)
	if n == 0 {
		return nil, nil, false
	}
	rest, ok = bytes.CutPrefix(b[n:], sep)
	return b[:n], rest, ok
}

// numberLen returns the length of the longest prefix of b that is a
// JSON number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, or 0
// when b does not start with one.
func numberLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return 0
	}
	if i+1 < len(b) && b[i] == '.' && isDigit(b[i+1]) {
		i = digits(b, i+2)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if j < len(b) && isDigit(b[j]) {
			i = digits(b, j+1)
		}
	}
	return i
}

// digits returns the index of the first non-digit of b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// parseInt parses a JSON number as encoding/json does for an int field:
// an integer literal in range, with no fraction or exponent.
func parseInt(num []byte) (int, bool) {
	n, err := strconv.Atoi(string(num))
	return n, err == nil
}

// parseFloat parses a JSON number as encoding/json does for a float64
// field, refusing one out of range.
func parseFloat(num []byte) (float64, bool) {
	v, err := strconv.ParseFloat(string(num), 64)
	return v, err == nil
}
