package core

import (
	"testing"

	"asv/internal/dataset"
	"asv/internal/imgproc"
	"asv/internal/stereo"
)

// nonKeyClip is three frames of a SceneFlow-like scene at the offline
// benchmark's geometry (192×120) and frame 0's SGM disparity over a
// 40-disparity search, the key frame the non-key frames propagate from.
func nonKeyClip() (frames []dataset.FramePair, key *imgproc.Image) {
	seq := dataset.Generate(dataset.SceneFlowLike(192, 120, 3, 7)[0])
	opt := stereo.DefaultSGMOptions()
	opt.MaxDisp = 40
	return seq.Frames, stereo.SGM(seq.Frames[0].Left, seq.Frames[0].Right, opt)
}

// BenchmarkNonKeyFrame times frame 2 of a PW-4 window with the paper's
// Farneback estimator. Cold, frame 1 ran through ProcessNonKeyWith with
// stateless flows, so frame 2 expands both of its frame pairs; warm, frame
// 1 ran through processNonKey, and frame 2 reuses the expansion frame 1
// built of its own pair.
func BenchmarkNonKeyFrame(b *testing.B) {
	frames, key := nonKeyClip()
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			p := New(nil, DefaultConfig())
			me := p.Config().MotionSource()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p.ProcessKey(frames[0].Left, frames[0].Right, key, 0)
				if warm {
					p.processNonKey(frames[1].Left, frames[1].Right)
				} else {
					p.ProcessNonKeyWith(frames[1].Left, frames[1].Right,
						me.Estimate(frames[0].Left, frames[1].Left), me.Estimate(frames[0].Right, frames[1].Right))
				}
				b.StartTimer()
				p.processNonKey(frames[2].Left, frames[2].Right)
			}
		})
	}
}
