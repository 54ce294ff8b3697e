package asv

import (
	"asv/internal/metrics"
	"asv/internal/pipeline"
)

// Concurrent streaming runtime (see internal/pipeline): the per-frame ISM
// stages run as a bounded-channel pipeline so frame t+1's optical flow
// overlaps frame t's refinement, with output bit-identical to the serial
// Pipeline.

// StreamFrame is one stereo pair of an input stream.
type StreamFrame = pipeline.Frame

// StreamOptions tunes the streaming runtime (workers, in-flight depth,
// metrics sink).
type StreamOptions = pipeline.Options

// StreamResult is one in-order result of the streaming runtime.
type StreamResult = pipeline.Result

// Metrics collects per-stage frame counters, latency histograms and
// allocation statistics.
type Metrics = metrics.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return metrics.NewRegistry() }

// StreamDepth runs the concurrent ISM pipeline over the frame channel and
// returns the channel of in-order results, bit-identical to calling
// Pipeline.Process frame by frame.
func StreamDepth(matcher KeyMatcher, cfg PipelineConfig, frames <-chan StreamFrame, opt StreamOptions) <-chan StreamResult {
	return pipeline.Stream(matcher, cfg, frames, opt)
}

// StreamDepthFrames is the batch form of StreamDepth for pre-materialized
// sequences.
func StreamDepthFrames(matcher KeyMatcher, cfg PipelineConfig, frames []StreamFrame, opt StreamOptions) []StreamResult {
	return pipeline.StreamFrames(matcher, cfg, frames, opt)
}

// ProcessDepthFrame runs one stereo pair through p on the caller's
// goroutine — the per-frame path the depth service uses — and records the
// "keymatch", "flow", "propagate+refine" and "frame" stage latencies in m
// when m is non-nil. The result is bit-identical to p.Process.
func ProcessDepthFrame(p *Pipeline, matcher KeyMatcher, left, right *Image, m *Metrics) FrameResult {
	return pipeline.ProcessFrame(p, matcher, left, right, m)
}
