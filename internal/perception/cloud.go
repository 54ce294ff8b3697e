package perception

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"asv/internal/imgproc"
)

// Point is one reprojected sample: metric coordinates in the left camera
// frame plus the source pixel's intensity (0 when no intensity image was
// supplied).
type Point struct {
	X, Y, Z, I float32
}

// Cloud is a reprojected point cloud. Points are in row-major scan order of
// the source disparity grid with invalid pixels dropped, so clouds built
// from identical inputs are bit-identical — the property the golden tests
// and the snapshot-migration oracle pin.
type Cloud struct {
	// W, H is the source disparity grid the cloud was reprojected from.
	W, H   int
	Points []Point
}

// Reproject triangulates every valid disparity into a 3D point (see the
// package comment for the pinhole equations). intensity, when non-nil,
// must match disp's geometry and fills each point's I channel — pass the
// rectified left view to get a colorable cloud.
func Reproject(disp, intensity *imgproc.Image, c *Calibration) *Cloud {
	if intensity != nil && (intensity.W != disp.W || intensity.H != disp.H) {
		panic(fmt.Sprintf("perception: intensity %dx%d does not match disparity %dx%d",
			intensity.W, intensity.H, disp.W, disp.H))
	}
	fb := c.Fx * c.BaselineM
	out := &Cloud{W: disp.W, H: disp.H}
	for y := 0; y < disp.H; y++ {
		row := disp.Pix[y*disp.W : (y+1)*disp.W]
		for x, d := range row {
			if !(d >= MinValidDisp) || math.IsInf(float64(d), 0) {
				continue
			}
			z := fb / float64(d)
			p := Point{
				X: float32((float64(x) - c.Cx) * z / c.Fx),
				Y: float32((float64(y) - c.Cy) * z / c.Fy),
				Z: float32(z),
			}
			if intensity != nil {
				p.I = intensity.Pix[y*disp.W+x]
			}
			out.Points = append(out.Points, p)
		}
	}
	return out
}

// CloudStats is the per-cloud metrics digest: how much of the grid
// triangulated and where the depth mass sits. Percentiles are computed over
// the points' Z values (metres).
type CloudStats struct {
	Points    int     `json:"points"`
	Grid      int     `json:"grid_pixels"`
	ValidFrac float64 `json:"valid_frac"`
	MinZ      float64 `json:"min_z_m"`
	P10Z      float64 `json:"p10_z_m"`
	P50Z      float64 `json:"p50_z_m"`
	P90Z      float64 `json:"p90_z_m"`
	MaxZ      float64 `json:"max_z_m"`
	MeanZ     float64 `json:"mean_z_m"`
}

// Stats digests the cloud. An empty cloud reports zeros.
func (c *Cloud) Stats() CloudStats {
	st := CloudStats{Points: len(c.Points), Grid: c.W * c.H}
	if st.Grid > 0 {
		st.ValidFrac = float64(st.Points) / float64(st.Grid)
	}
	if len(c.Points) == 0 {
		return st
	}
	zs := make([]float64, len(c.Points))
	var sum float64
	for i, p := range c.Points {
		zs[i] = float64(p.Z)
		sum += float64(p.Z)
	}
	sort.Float64s(zs)
	pct := func(q float64) float64 {
		idx := int(q*float64(len(zs))) - 1
		if idx < 0 {
			idx = 0
		}
		return zs[idx]
	}
	st.MinZ = zs[0]
	st.P10Z = pct(0.10)
	st.P50Z = pct(0.50)
	st.P90Z = pct(0.90)
	st.MaxZ = zs[len(zs)-1]
	st.MeanZ = sum / float64(len(zs))
	return st
}

// --- streaming binary codec ---------------------------------------------
//
// Wire format "ASVPCD", version 1, all integers little-endian:
//
//	[6]byte  magic "ASVPCD"
//	uint8    version (1)
//	uint32   grid width, uint32 grid height
//	uint32   point count (≤ width·height)
//	count ×  4 float32 (x, y, z, intensity)
//	uint32   IEEE CRC32 of everything before it (magic included)
//
// The bytes are canonical: one cloud has one encoding. The server only
// writes the format; its reference reader, which refuses truncation, bad
// counts, non-finite coordinates, trailing bytes and CRC mismatches, lives
// with the tests (decodeCloud in codec_test.go) that hold EncodeCloud to it.

// CloudCodecVersion is the wire-format version this build writes.
const CloudCodecVersion = 1

const cloudMagic = "ASVPCD"

// EncodeCloud serializes the cloud into the versioned binary format.
func EncodeCloud(c *Cloud) []byte {
	buf := make([]byte, 0, len(cloudMagic)+1+12+16*len(c.Points)+4)
	buf = append(buf, cloudMagic...)
	buf = append(buf, CloudCodecVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.W))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.H))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Points)))
	for _, p := range c.Points {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(p.X))
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(p.Y))
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(p.Z))
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(p.I))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}
