// Depthstream: run the full ISM pipeline over a stereo video and sweep the
// propagation window, reproducing the paper's central trade-off (Sec. 3,
// Fig. 9): key frames pay for an expensive high-accuracy matcher, non-key
// frames ride the correspondence invariant for a tiny fraction of the
// compute, and accuracy degrades only slightly as the window widens.
//
// The sweep runs through StreamDepthFrames, the served frame path over a
// whole sequence (bit-identical to the serial Pipeline), and finishes with
// its per-stage metrics dump.
package main

import (
	"fmt"
	"os"

	"asv"
)

func main() {
	w, h, frames := 192, 120, 12
	// ASV_SMOKE shrinks the demo so CI can run every example quickly.
	if os.Getenv("ASV_SMOKE") != "" {
		w, h, frames = 96, 64, 6
	}
	sgmOpt := asv.DefaultSGMOptions()
	sgmOpt.MaxDisp = 28

	fmt.Printf("ISM over a %d-frame %dx%d stereo stream (key matcher: SGM, streaming)\n\n", frames, w, h)
	fmt.Println("window   mean-err-%   GOps/frame   saving")

	reg := asv.NewMetrics()
	var baseOps float64
	for _, pw := range []int{1, 2, 4, 6} {
		cfg := asv.DefaultPipelineConfig()
		cfg.PW = pw

		// Regenerate the same scene for every window so results compare.
		seq := asv.GenerateSequence(asv.SceneConfig{
			W: w, H: h, FrameCount: frames,
			Layers: 3, MinDisp: 2, MaxDisp: 22,
			MaxVel: 1.5, MaxDispVel: 0.3, Ground: true, Noise: 0.01,
			Seed: 99,
		})
		in := make([]asv.StreamFrame, len(seq.Frames))
		for i, fr := range seq.Frames {
			in[i] = asv.StreamFrame{Left: fr.Left, Right: fr.Right}
		}

		var errSum float64
		var macs int64
		for i, res := range asv.StreamDepthFrames(asv.SGMKeyMatcher{Opt: sgmOpt}, cfg, in,
			asv.StreamOptions{Metrics: reg}) {
			errSum += asv.ThreePixelError(res.Disparity, seq.Frames[i].GT)
			macs += res.MACs
		}
		opsPerFrame := float64(macs) / float64(frames) / 1e9
		if pw == 1 {
			baseOps = opsPerFrame
		}
		fmt.Printf("PW-%-4d  %8.2f   %10.3f   %5.1fx\n",
			pw, errSum/float64(frames), opsPerFrame, baseOps/opsPerFrame)
	}

	fmt.Println("\nPW-1 runs the key matcher on every frame; wider windows trade a")
	fmt.Println("little accuracy for an arithmetic saving. With this cheap SGM key")
	fmt.Println("matcher the saving is modest; a stereo-DNN key matcher costs")
	fmt.Println("10^2-10^4x a non-key frame (Sec. 3.3), so the saving approaches")
	fmt.Println("the window size itself - the regime of the paper's Fig. 10.")

	fmt.Printf("\nper-stage metrics across all four sweeps:\n%s", reg.Dump())
}
