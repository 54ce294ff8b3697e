package core

// Adaptive key-frame selection.
//
// The paper's micro-sequencer statically re-keys every PW frames, noting
// that "complex adaptive schemes are feasible" (Sec. 5.2, citing EVA² and
// Euphrates). This file implements the natural one: propagation quality
// decays with scene motion — the paper's own Sec. 3.2 lists fast motion and
// occlusion as the failure modes — so the controller re-keys early when
// the measured mean motion magnitude exceeds a threshold, and is otherwise
// allowed to stretch the window to MaxWindow.

// AdaptiveConfig tunes the motion-triggered key-frame controller.
type AdaptiveConfig struct {
	// MaxWindow is the hard bound on frames between key frames (>= 1).
	MaxWindow int
	// MotionThresholdPx re-keys the next frame when the mean per-pixel
	// motion magnitude of the current frame exceeds this many pixels.
	MotionThresholdPx float64
}

// DefaultAdaptiveConfig bounds the window at 6 and re-keys beyond 2 px of
// mean motion, the point where the ±3 guided search starts losing the true
// correspondence in the evaluation scenes.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{MaxWindow: 6, MotionThresholdPx: 2.0}
}
