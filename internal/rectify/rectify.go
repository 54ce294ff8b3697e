// Package rectify provides stereo rectification: warping a camera pair
// onto a common image plane so epipolar lines become horizontal rows. The
// ASV paper (like all stereo-matching work) assumes rectified input —
// Equ. 2's y_r = y_l only holds after this step — so a deployable stereo
// library must supply it.
//
// The model is a rotational misalignment: each physical camera is the
// ideal rectified camera rotated by a small rotation R. The correcting
// warp is the homography H = K·Rᵀ·K⁻¹ applied by inverse mapping.
package rectify

import (
	"fmt"
	"math"

	"asv/internal/imgproc"
	"asv/internal/par"
)

// Mat3 is a row-major 3×3 matrix.
type Mat3 [9]float64

// Mul returns m·o.
func (m Mat3) Mul(o Mat3) Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var s float64
			for k := 0; k < 3; k++ {
				s += m[i*3+k] * o[k*3+j]
			}
			r[i*3+j] = s
		}
	}
	return r
}

// Det returns the determinant.
func (m Mat3) Det() float64 {
	return m[0]*(m[4]*m[8]-m[5]*m[7]) -
		m[1]*(m[3]*m[8]-m[5]*m[6]) +
		m[2]*(m[3]*m[7]-m[4]*m[6])
}

// Inverse returns m⁻¹; it panics if m is singular.
func (m Mat3) Inverse() Mat3 {
	d := m.Det()
	if math.Abs(d) < 1e-12 {
		panic(fmt.Sprintf("rectify: singular matrix %v", m))
	}
	inv := 1 / d
	return Mat3{
		(m[4]*m[8] - m[5]*m[7]) * inv,
		(m[2]*m[7] - m[1]*m[8]) * inv,
		(m[1]*m[5] - m[2]*m[4]) * inv,
		(m[5]*m[6] - m[3]*m[8]) * inv,
		(m[0]*m[8] - m[2]*m[6]) * inv,
		(m[2]*m[3] - m[0]*m[5]) * inv,
		(m[3]*m[7] - m[4]*m[6]) * inv,
		(m[1]*m[6] - m[0]*m[7]) * inv,
		(m[0]*m[4] - m[1]*m[3]) * inv,
	}
}

// Apply maps a homogeneous pixel (x, y, 1) through the matrix and
// dehomogenizes.
func (m Mat3) Apply(x, y float64) (float64, float64) {
	u := m[0]*x + m[1]*y + m[2]
	v := m[3]*x + m[4]*y + m[5]
	w := m[6]*x + m[7]*y + m[8]
	return u / w, v / w
}

// Rotation builds a rotation matrix from small Euler angles (radians):
// R = Rz(yaw)·Ry(pitch)·Rx(roll) in the camera frame (x right, y down,
// z forward).
func Rotation(roll, pitch, yaw float64) Mat3 {
	cr, sr := math.Cos(roll), math.Sin(roll)
	cp, sp := math.Cos(pitch), math.Sin(pitch)
	cy, sy := math.Cos(yaw), math.Sin(yaw)
	rx := Mat3{1, 0, 0, 0, cr, -sr, 0, sr, cr}
	ry := Mat3{cp, 0, sp, 0, 1, 0, -sp, 0, cp}
	rz := Mat3{cy, -sy, 0, sy, cy, 0, 0, 0, 1}
	return rz.Mul(ry).Mul(rx)
}

// Intrinsics is a pinhole camera: focal lengths and principal point in
// pixels.
type Intrinsics struct {
	Fx, Fy, Cx, Cy float64
}

// K returns the calibration matrix.
func (in Intrinsics) K() Mat3 {
	return Mat3{in.Fx, 0, in.Cx, 0, in.Fy, in.Cy, 0, 0, 1}
}

// DefaultIntrinsics centers the principal point on a w×h image with a
// focal length of w pixels (a ~53° horizontal field of view).
func DefaultIntrinsics(w, h int) Intrinsics {
	return Intrinsics{Fx: float64(w), Fy: float64(w), Cx: float64(w) / 2, Cy: float64(h) / 2}
}

// Homography returns the pixel homography H = K·R·K⁻¹ induced by rotating
// a pinhole camera by R about its center. By convention here, the
// *captured* (rotated) view samples the rectified view through H: a
// captured pixel p shows rectified content at H·p.
func Homography(in Intrinsics, r Mat3) Mat3 {
	return in.K().Mul(r).Mul(in.K().Inverse())
}

// WarpHomography resamples src so that out(x, y) = src(H·(x, y, 1)), with
// bilinear interpolation and border clamping.
func WarpHomography(src *imgproc.Image, h Mat3) *imgproc.Image {
	out := imgproc.NewImage(src.W, src.H)
	par.For(src.H, func(y int) {
		for x := 0; x < src.W; x++ {
			sx, sy := h.Apply(float64(x), float64(y))
			out.Set(x, y, src.Bilinear(float32(sx), float32(sy)))
		}
	})
	return out
}

// Misalign simulates a de-rectified camera: the image the physical camera
// (rotated by r relative to the rectified frame) would capture of the same
// scene.
func Misalign(rectified *imgproc.Image, in Intrinsics, r Mat3) *imgproc.Image {
	return WarpHomography(rectified, Homography(in, r))
}

// Rectify corrects a physical camera image whose orientation differs from
// the rectified frame by rotation r; it is the exact inverse of Misalign
// (up to resampling at the borders).
func Rectify(captured *imgproc.Image, in Intrinsics, r Mat3) *imgproc.Image {
	return WarpHomography(captured, Homography(in, r).Inverse())
}

// RectifyPair corrects both views of a stereo pair given each camera's
// rotation relative to the rectified frame.
func RectifyPair(left, right *imgproc.Image, in Intrinsics, rl, rr Mat3) (*imgproc.Image, *imgproc.Image) {
	return Rectify(left, in, rl), Rectify(right, in, rr)
}
