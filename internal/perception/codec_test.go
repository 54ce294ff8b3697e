package perception

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// cloudMaxDim caps the decoded grid dimensions.
const cloudMaxDim = 1 << 15

// cloudError is the typed failure for corrupt point-cloud bytes.
type cloudError struct{ msg string }

func (e *cloudError) Error() string { return "cloud: " + e.msg }

func cloudErrorf(format string, args ...any) *cloudError {
	return &cloudError{msg: fmt.Sprintf(format, args...)}
}

// decodeCloud is the reference reader of the ASVPCD format: it parses and
// validates cloud bytes, failing with a *cloudError on any damage. maxPoints
// bounds the allocation a hostile payload can force (≤ 0 selects a 2^24
// default). Anything it accepts must re-encode to the identical bytes.
func decodeCloud(data []byte, maxPoints int) (*Cloud, error) {
	if maxPoints <= 0 {
		maxPoints = 1 << 24
	}
	header := len(cloudMagic) + 1 + 12
	if len(data) < header+4 {
		return nil, cloudErrorf("%d bytes is shorter than any cloud", len(data))
	}
	if string(data[:len(cloudMagic)]) != cloudMagic {
		return nil, cloudErrorf("bad magic %q", data[:len(cloudMagic)])
	}
	if v := data[len(cloudMagic)]; v != CloudCodecVersion {
		return nil, cloudErrorf("unsupported version %d (this build reads %d)", v, CloudCodecVersion)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, cloudErrorf("checksum mismatch (computed %08x, recorded %08x)", got, want)
	}
	pos := len(cloudMagic) + 1
	w := binary.LittleEndian.Uint32(body[pos:])
	h := binary.LittleEndian.Uint32(body[pos+4:])
	n := binary.LittleEndian.Uint32(body[pos+8:])
	pos += 12
	if w < 1 || w > cloudMaxDim || h < 1 || h > cloudMaxDim {
		return nil, cloudErrorf("grid %dx%d out of range [1, %d]", w, h, cloudMaxDim)
	}
	if uint64(n) > uint64(w)*uint64(h) {
		return nil, cloudErrorf("%d points exceed the %dx%d grid", n, w, h)
	}
	if int64(n) > int64(maxPoints) {
		return nil, cloudErrorf("%d points exceed the %d-point cap", n, maxPoints)
	}
	if len(body)-pos != 16*int(n) {
		return nil, cloudErrorf("payload is %d bytes, %d points need %d", len(body)-pos, n, 16*int(n))
	}
	out := &Cloud{W: int(w), H: int(h), Points: make([]Point, n)}
	for i := range out.Points {
		p := &out.Points[i]
		p.X = math.Float32frombits(binary.LittleEndian.Uint32(body[pos:]))
		p.Y = math.Float32frombits(binary.LittleEndian.Uint32(body[pos+4:]))
		p.Z = math.Float32frombits(binary.LittleEndian.Uint32(body[pos+8:]))
		p.I = math.Float32frombits(binary.LittleEndian.Uint32(body[pos+12:]))
		pos += 16
		for _, v := range [4]float32{p.X, p.Y, p.Z, p.I} {
			if v != v || math.IsInf(float64(v), 0) {
				return nil, cloudErrorf("non-finite coordinate in point %d", i)
			}
		}
	}
	return out, nil
}
