package stereo

import (
	"sort"

	"asv/internal/imgproc"
	"asv/internal/par"
)

// Disparity-map post-processing: the cleanup passes a production stereo
// pipeline runs between matching and consumption. Invalid pixels are
// marked with negative disparities throughout (the convention of
// LeftRightCheck).

// MedianFilter applies a (2r+1)×(2r+1) median to the disparity map,
// ignoring invalid (negative) samples; a pixel with no valid neighbours
// stays invalid. The median is the standard salt-and-pepper cleanup for
// WTA disparity maps.
func MedianFilter(d *imgproc.Image, r int) *imgproc.Image {
	if r < 1 {
		panic("stereo: median radius < 1")
	}
	out := imgproc.NewImage(d.W, d.H)
	par.For(d.H, func(y int) {
		window := make([]float32, 0, (2*r+1)*(2*r+1))
		for x := 0; x < d.W; x++ {
			window = window[:0]
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					if v := d.At(x+dx, y+dy); v >= 0 {
						window = append(window, v)
					}
				}
			}
			if len(window) == 0 {
				out.Set(x, y, -1)
				continue
			}
			sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
			out.Set(x, y, window[len(window)/2])
		}
	})
	return out
}

// SpeckleFilter invalidates connected regions of similar disparity smaller
// than minRegion pixels — isolated mismatch islands that survive WTA.
// Two neighbouring pixels are connected when their disparities differ by
// at most maxDiff. Invalid input pixels stay invalid.
func SpeckleFilter(d *imgproc.Image, maxDiff float32, minRegion int) *imgproc.Image {
	w, h := d.W, d.H
	out := d.Clone()
	labels := make([]int32, w*h) // 0 = unvisited
	var region []int32           // stack + member record, reused
	next := int32(1)

	for start := 0; start < w*h; start++ {
		if labels[start] != 0 || d.Pix[start] < 0 {
			continue
		}
		// Flood fill the connected component of start.
		region = region[:0]
		region = append(region, int32(start))
		labels[start] = next
		size := 0
		for size < len(region) {
			idx := region[size]
			size++
			x, y := int(idx)%w, int(idx)/w
			v := d.Pix[idx]
			for _, n := range [4][2]int{{x - 1, y}, {x + 1, y}, {x, y - 1}, {x, y + 1}} {
				nx, ny := n[0], n[1]
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					continue
				}
				ni := int32(ny*w + nx)
				if labels[ni] != 0 || d.Pix[ni] < 0 {
					continue
				}
				diff := d.Pix[ni] - v
				if diff < 0 {
					diff = -diff
				}
				if diff > maxDiff {
					continue
				}
				labels[ni] = next
				region = append(region, ni)
			}
		}
		if len(region) < minRegion {
			for _, idx := range region {
				out.Pix[idx] = -1
			}
		}
		next++
	}
	return out
}

// FillInvalid replaces invalid (negative) disparities by horizontal
// background extension — each hole takes the smaller of its left/right
// valid neighbours, the standard occlusion-filling heuristic (occluded
// regions belong to the background). Rows with no valid pixel are filled
// with 0.
func FillInvalid(d *imgproc.Image) *imgproc.Image {
	out := d.Clone()
	par.For(d.H, func(y int) {
		row := out.Pix[y*d.W : (y+1)*d.W]
		for x := 0; x < len(row); x++ {
			if row[x] >= 0 {
				continue
			}
			var left, right float32 = -1, -1
			for i := x - 1; i >= 0; i-- {
				if row[i] >= 0 {
					left = row[i]
					break
				}
			}
			for i := x + 1; i < len(row); i++ {
				if row[i] >= 0 {
					right = row[i]
					break
				}
			}
			switch {
			case left >= 0 && right >= 0:
				if left < right {
					row[x] = left
				} else {
					row[x] = right
				}
			case left >= 0:
				row[x] = left
			case right >= 0:
				row[x] = right
			default:
				row[x] = 0
			}
		}
	})
	return out
}
