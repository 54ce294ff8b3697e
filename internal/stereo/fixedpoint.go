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
		return uint8(float32(v*255) + 0.5)
	}
	return 0
}

// planeFree holds the quantized planes of finished SAD kernel calls for the
// next ones, as refineFree does the refine's scratch.
var planeFree imgproc.FreeList[[]uint8]

// quantize8 quantizes every sample of im into a plane off planeFree; the
// caller puts it back once the kernel is done with it.
func quantize8(im *imgproc.Image) *[]uint8 {
	p := planeFree.Get()
	*p = imgproc.Grow(*p, len(im.Pix))
	q := (*p)[:len(im.Pix)]
	for i, v := range im.Pix {
		q[i] = quant8(v)
	}
	return p
}

// roundPenalty converts a float smoothness penalty to uint16 cost units.
func roundPenalty(p float32) uint16 {
	return uint16(min(max(math.Round(float64(p)), 0), math.MaxUint16))
}
