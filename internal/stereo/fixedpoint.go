package stereo

import (
	"math"

	"asv/internal/imgproc"
)

// Conversions into the integer numeric type of the kernel family: uint8
// Q0.8 samples, uint16 cost cells and penalties (DESIGN.md §9).

// quant8 maps a nominal-[0,1] float onto a uint8 Q0.8 sample with
// round-to-nearest; out-of-range values saturate.
func quant8(v float32) uint8 {
	switch {
	case v >= 1:
		return 255
	case v > 0:
		return uint8(v*255 + 0.5)
	}
	return 0
}

// quantize8 quantizes every sample of im.
func quantize8(im *imgproc.Image) []uint8 {
	out := make([]uint8, len(im.Pix))
	for i, v := range im.Pix {
		out[i] = quant8(v)
	}
	return out
}

// roundPenalty converts a float smoothness penalty to uint16 cost units.
func roundPenalty(p float32) uint16 {
	return uint16(min(max(math.Round(float64(p)), 0), math.MaxUint16))
}
