package pipeline

import (
	"testing"

	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/testkit"
)

// Randomized differential oracle (ISSUE 2): beyond the fixed golden
// sequence, StreamFrames must match the serial path bit for bit on
// randomized scenes, key-frame windows and kernel worker counts. Scene
// parameters are drawn from the per-test seed so a failure reproduces with
// ASV_TEST_SEED.
func TestDifferentialStreamMatchesSerialRandomScenes(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized pipeline differential is slow; run without -short")
	}
	r := testkit.NewRand(t)
	for i := 0; i < 3; i++ {
		scene := dataset.SceneConfig{
			W:          testkit.RandDim(r, 48, 80),
			H:          testkit.RandDim(r, 32, 56),
			FrameCount: testkit.RandDim(r, 5, 9),
			Layers:     testkit.RandDim(r, 1, 3),
			MinDisp:    2, MaxDisp: 12,
			MaxVel: 1.5, MaxDispVel: 0.3,
			Ground: r.Intn(2) == 0,
			Noise:  0.02 * r.Float64(),
			Seed:   r.Int63(),
		}
		seq := dataset.Generate(scene)
		frames := make([]Frame, len(seq.Frames))
		for j, fr := range seq.Frames {
			frames[j] = Frame{Left: fr.Left, Right: fr.Right}
		}
		cfg := core.DefaultConfig()
		cfg.PW = testkit.RandDim(r, 1, 4)

		serial := serialResults(testMatcher(), cfg, frames)
		for _, workers := range []int{1, 2, 3, 8} {
			setWorkers(t, workers)
			streamed := StreamFrames(testMatcher(), cfg, frames, Options{})
			if len(streamed) != len(serial) {
				t.Fatalf("scene %d workers %d: %d results, want %d", i, workers, len(streamed), len(serial))
			}
			for j, got := range streamed {
				want := serial[j]
				if got.IsKey != want.IsKey || got.MACs != want.MACs {
					t.Fatalf("scene %d workers %d frame %d: (IsKey=%v MACs=%d) vs serial (%v %d)",
						i, workers, j, got.IsKey, got.MACs, want.IsKey, want.MACs)
				}
				if m := testkit.DiffImages(got.Disparity, want.Disparity, 0); m != nil {
					t.Fatalf("scene %d workers %d frame %d: disparity diverges from serial: %s",
						i, workers, j, m)
				}
			}
		}
	}
}
