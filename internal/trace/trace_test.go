package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"wivi/internal/rng"
)

func sampleRecord(seed int64, nSub, nSamp int) *Record {
	s := rng.New(seed)
	r := &Record{SampleT: 0.0032, Lambda: 0.125}
	for k := 0; k < nSub; k++ {
		r.PerSub = append(r.PerSub, s.ComplexGaussianVec(nSamp, 1))
	}
	return r
}

func TestRoundTrip(t *testing.T) {
	r := sampleRecord(1, 4, 100)
	var buf bytes.Buffer
	if err := Write(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SampleT != r.SampleT || got.Lambda != r.Lambda {
		t.Fatal("metadata round trip failed")
	}
	for k := range r.PerSub {
		for i := range r.PerSub[k] {
			if got.PerSub[k][i] != r.PerSub[k][i] {
				t.Fatalf("sample (%d,%d) mismatch", k, i)
			}
		}
	}
	if got.Samples() != 100 || got.Duration() != 0.32 {
		t.Fatalf("Samples/Duration = %d/%v", got.Samples(), got.Duration())
	}
}

// TestRoundTripProperty exercises arbitrary shapes.
func TestRoundTripProperty(t *testing.T) {
	seed := int64(0)
	f := func() bool {
		s := rng.New(seed)
		seed++
		r := sampleRecord(seed, 1+s.Intn(8), 1+s.Intn(200))
		var buf bytes.Buffer
		if err := Write(&buf, r); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.PerSub) != len(r.PerSub) {
			return false
		}
		for k := range r.PerSub {
			for i := range r.PerSub[k] {
				if got.PerSub[k][i] != r.PerSub[k][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	cases := []*Record{
		{SampleT: 0, Lambda: 1, PerSub: [][]complex128{{1}}},
		{SampleT: 1, Lambda: 0, PerSub: [][]complex128{{1}}},
		{SampleT: 1, Lambda: 1},
		{SampleT: 1, Lambda: 1, PerSub: [][]complex128{{}}},
		{SampleT: 1, Lambda: 1, PerSub: [][]complex128{{1}, {1, 2}}},
		{SampleT: 1, Lambda: 1, PerSub: [][]complex128{{1, 2}, {3, complex(math.NaN(), 0)}}},
		{SampleT: 1, Lambda: 1, PerSub: [][]complex128{{complex(0, math.Inf(1))}}},
	}
	for i, r := range cases {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: invalid record accepted", i)
		}
		var buf bytes.Buffer
		if err := Write(&buf, r); err == nil {
			t.Errorf("case %d: invalid record written", i)
		}
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE................"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	r := sampleRecord(2, 1, 4)
	var buf bytes.Buffer
	if err := Write(&buf, r); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // corrupt version
	if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestReadRejectsCorruptDims(t *testing.T) {
	r := sampleRecord(3, 1, 4)
	var buf bytes.Buffer
	if err := Write(&buf, r); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Zero out the subcarrier count (offset: magic 4 + version 4 +
	// 2 float64 = 24).
	for i := 24; i < 28; i++ {
		b[i] = 0
	}
	if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestReadTruncated(t *testing.T) {
	r := sampleRecord(4, 2, 50)
	var buf bytes.Buffer
	if err := Write(&buf, r); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := Read(bytes.NewReader(b[:len(b)/2])); err == nil {
		t.Fatal("truncated trace accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); !errors.Is(err, io.EOF) && err == nil {
		t.Fatal("empty trace accepted")
	}
}

// TestReadRejectsNonFiniteSample: a trace file carrying a NaN or an
// infinite sample fails to read, naming the sample, instead of reaching
// the imaging chain.
func TestReadRejectsNonFiniteSample(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		r := sampleRecord(5, 3, 40)
		var buf bytes.Buffer
		if err := Write(&buf, r); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		// The samples follow the 32-byte header, 16 bytes each,
		// subcarrier-major: overwrite the imaginary part of sample 17
		// of subcarrier 2.
		off := 32 + (2*40+17)*16 + 8
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(bad))
		_, err := Read(bytes.NewReader(b))
		if err == nil || !strings.Contains(err.Error(), "subcarrier 2 sample 17") {
			t.Fatalf("%v sample: err = %v, want it named as subcarrier 2 sample 17", bad, err)
		}
	}
}

// TestReadCorruptHeaderAllocatesLittle: a 32-byte file whose header
// claims 2^24 subcarriers x 1 sample, or 1 x 2^24, fails on the missing
// data without allocating what the header claims (256 MiB of samples).
func TestReadCorruptHeaderAllocatesLittle(t *testing.T) {
	for _, dims := range [][2]uint32{{1 << 24, 1}, {1, 1 << 24}} {
		var buf bytes.Buffer
		buf.Write(Magic[:])
		for _, v := range []any{Version, 0.0032, 0.125, dims[0], dims[1]} {
			if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
		file := buf.Bytes()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(file))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d x %d header on a %d-byte file: err = %v, want io.ErrUnexpectedEOF", dims[0], dims[1], len(file), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%d x %d header on a %d-byte file allocated %d bytes, want under 1 MiB", dims[0], dims[1], len(file), got)
		}
	}
}

// FuzzRead: Read never panics on arbitrary bytes, and whatever it
// accepts is a valid record that Write reproduces bit for bit.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleRecord(6, 2, 3)); err != nil {
		f.Fatal(err)
	}
	rec := buf.Bytes()
	for _, n := range []int{len(rec), len(rec) - 1, 40, 32, 31, 8, 4, 0} {
		f.Add(rec[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("Read accepted an invalid record: %v", err)
		}
		var out bytes.Buffer
		if err := Write(&out, r); err != nil {
			t.Fatalf("Write of a read record: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatal("Write does not reproduce the bytes Read accepted")
		}
	})
}
