// Package trace serializes recorded Wi-Vi channel captures so they can be
// processed offline — the prototype's workflow (§7.1: nulling runs in
// real time on the radio; smoothed-MUSIC processing runs offline over
// recorded traces).
//
// The format is a little-endian binary container:
//
//	magic   [4]byte  "WIVI"
//	version uint32   (currently 1)
//	sampleT float64  seconds
//	lambda  float64  meters
//	nSub    uint32   subcarrier count
//	nSamp   uint32   samples per subcarrier
//	data    nSub * nSamp * 2 float64 (re, im), subcarrier-major
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/cmplx"
)

// Magic identifies trace files.
var Magic = [4]byte{'W', 'I', 'V', 'I'}

// Version is the current format version.
const Version uint32 = 1

// maxDim bounds each header dimension. Read allocates for the data it
// actually receives, not for what the header claims, so a corrupt header
// cannot force a huge allocation.
const maxDim = 1 << 24

// Record is the serializable form of a channel capture.
type Record struct {
	// SampleT is the sample period in seconds.
	SampleT float64
	// Lambda is the center wavelength in meters.
	Lambda float64
	// PerSub is the per-subcarrier channel series, [subcarrier][sample].
	PerSub [][]complex128
}

// Errors returned by Read.
var (
	ErrBadMagic   = errors.New("trace: bad magic (not a Wi-Vi trace)")
	ErrBadVersion = errors.New("trace: unsupported version")
	ErrCorrupt    = errors.New("trace: corrupt header")
)

// Validate reports structural problems with the record and names any
// sample that is not finite, so that a bad trace fails where it is read
// rather than in the imaging chain.
func (r *Record) Validate() error {
	if r.SampleT <= 0 || math.IsNaN(r.SampleT) || math.IsInf(r.SampleT, 0) {
		return fmt.Errorf("trace: invalid sample period %v", r.SampleT)
	}
	if r.Lambda <= 0 || math.IsNaN(r.Lambda) || math.IsInf(r.Lambda, 0) {
		return fmt.Errorf("trace: invalid wavelength %v", r.Lambda)
	}
	if len(r.PerSub) == 0 {
		return errors.New("trace: no subcarriers")
	}
	n := len(r.PerSub[0])
	if n == 0 {
		return errors.New("trace: empty capture")
	}
	for k, sub := range r.PerSub {
		if len(sub) != n {
			return fmt.Errorf("trace: subcarrier %d has %d samples, want %d", k, len(sub), n)
		}
		for i, c := range sub {
			if cmplx.IsNaN(c) || cmplx.IsInf(c) {
				return fmt.Errorf("trace: subcarrier %d sample %d is not finite: %v", k, i, c)
			}
		}
	}
	return nil
}

// Samples returns the per-subcarrier sample count.
func (r *Record) Samples() int {
	if len(r.PerSub) == 0 {
		return 0
	}
	return len(r.PerSub[0])
}

// Duration returns the capture length in seconds.
func (r *Record) Duration() float64 { return float64(r.Samples()) * r.SampleT }

// Write serializes the record to w.
func Write(w io.Writer, r *Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if _, err := w.Write(Magic[:]); err != nil {
		return fmt.Errorf("trace: writing magic: %w", err)
	}
	hdr := []any{
		Version,
		r.SampleT,
		r.Lambda,
		uint32(len(r.PerSub)),
		uint32(len(r.PerSub[0])),
	}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("trace: writing header: %w", err)
		}
	}
	buf := make([]float64, 0, 2*len(r.PerSub[0]))
	for _, sub := range r.PerSub {
		buf = buf[:0]
		for _, c := range sub {
			buf = append(buf, real(c), imag(c))
		}
		if err := binary.Write(w, binary.LittleEndian, buf); err != nil {
			return fmt.Errorf("trace: writing samples: %w", err)
		}
	}
	return nil
}

// Read deserializes a record from rd.
func Read(rd io.Reader) (*Record, error) {
	var magic [4]byte
	if _, err := io.ReadFull(rd, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != Magic {
		return nil, ErrBadMagic
	}
	var version uint32
	if err := binary.Read(rd, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", err)
	}
	if version != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	r := &Record{}
	var nSub, nSamp uint32
	for _, v := range []any{&r.SampleT, &r.Lambda, &nSub, &nSamp} {
		if err := binary.Read(rd, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("trace: reading header: %w", err)
		}
	}
	if nSub == 0 || nSamp == 0 || nSub > maxDim || nSamp > maxDim {
		return nil, fmt.Errorf("%w: %d subcarriers x %d samples", ErrCorrupt, nSub, nSamp)
	}
	// Read the data before sizing anything from the header: ReadAll grows
	// its buffer only as bytes arrive, so a header that claims more than
	// the file holds costs about the file's size, not the claim's.
	size := int64(nSub) * int64(nSamp) * 16
	data, err := io.ReadAll(io.LimitReader(rd, size))
	if err != nil {
		return nil, fmt.Errorf("trace: reading samples: %w", err)
	}
	if int64(len(data)) < size {
		return nil, fmt.Errorf("trace: reading samples: %w", io.ErrUnexpectedEOF)
	}
	all := make([]complex128, len(data)/16)
	for i := range all {
		re := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		all[i] = complex(re, im)
	}
	n := int(nSamp)
	r.PerSub = make([][]complex128, nSub)
	for k := range r.PerSub {
		r.PerSub[k] = all[k*n : (k+1)*n : (k+1)*n]
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}
