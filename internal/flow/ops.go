package flow

// Arithmetic-cost model for the Farneback estimator, used by the ISM cost
// accounting (paper Sec. 3.3: a non-key qHD frame costs ~87 M operations,
// 10²–10⁴× less than stereo-DNN inference).
//
// Costs are expressed in multiply-accumulate operations (MACs), the unit the
// accelerator model charges for; pointwise comparisons and divisions are
// charged as one MAC each.

// FarnebackMACs returns the MAC count of one dense Farneback estimation on a
// w×h frame with the given options, summed over all pyramid levels.
func FarnebackMACs(w, h int, opt Options) int64 {
	conv, point := FarnebackOpsSplit(w, h, opt)
	return conv + point
}

// FarnebackOpsSplit separates the estimator's cost into convolution-like
// work (separable filters — mapped onto the systolic array) and pointwise
// work (the "Compute Flow" and "Matrix Update" kernels — mapped onto the
// scalar unit), mirroring the ASV hardware mapping of Fig. 8.
func FarnebackOpsSplit(w, h int, opt Options) (convMACs, pointOps int64) {
	if opt.Levels < 1 {
		opt.Levels = 1
	}
	if opt.Iters < 1 {
		opt.Iters = 1
	}
	gaussTaps := func(sigma float64) int64 {
		r := int64(float64(3*sigma) + 0.999)
		return 2*r + 1
	}
	polyTaps := int64(2*opt.PolyR + 1)
	winTaps := gaussTaps(opt.WinSigma)
	pyrTaps := gaussTaps(opt.PyrSigma)

	for l := 0; l < opt.Levels; l++ {
		pix := int64(w>>l) * int64(h>>l)
		if pix == 0 {
			break
		}
		if l > 0 {
			// Pyramid construction: separable blur at the parent level.
			parent := int64(w>>(l-1)) * int64(h>>(l-1))
			convMACs += parent * 2 * pyrTaps
		}
		// Polynomial expansion of both frames: six separable moment filters
		// (convolution) plus the sparse normal-equation solve (pointwise).
		convMACs += 2 * pix * 6 * 2 * polyTaps
		pointOps += 2 * pix * 20
		// Each iteration: pointwise matrix update (~30) and 2×2 solve
		// (~10), plus five Gaussian aggregations (convolution).
		convMACs += int64(opt.Iters) * pix * 5 * 2 * winTaps
		pointOps += int64(opt.Iters) * pix * 40
	}
	return convMACs, pointOps
}

// BlockMatchMACs returns the MAC count of a dense block-matching motion
// search with the given block size and ±searchR window on a w×h frame.
func BlockMatchMACs(w, h, block, searchR int) int64 {
	blocks := int64((w + block - 1) / block * ((h + block - 1) / block))
	cand := int64(2*searchR + 1)
	return blocks * cand * cand * int64(block*block)
}
