package asv

import (
	"asv/internal/metrics"
	"asv/internal/pipeline"
)

// Streaming (see internal/pipeline): each frame's first half — key matching,
// or the two eyes' optical flow — runs ahead on worker goroutines while the
// caller commits frames in order, so frame t+1's flow overlaps frame t's
// refinement, with output bit-identical to the serial Pipeline.

// StreamFrame is one stereo pair of an input stream.
type StreamFrame = pipeline.Frame

// StreamOptions configures StreamDepthFrames (the metrics sink).
type StreamOptions = pipeline.Options

// Metrics collects per-stage frame counters, latency histograms and
// allocation statistics.
type Metrics = metrics.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return metrics.NewRegistry() }

// StreamDepthFrames runs ISM over a pre-materialized stereo sequence and
// returns one result per frame, in input order, bit-identical to calling
// Pipeline.Process frame by frame.
func StreamDepthFrames(matcher KeyMatcher, cfg PipelineConfig, frames []StreamFrame, opt StreamOptions) []FrameResult {
	return pipeline.StreamFrames(matcher, cfg, frames, opt)
}

// ProcessDepthFrame runs one stereo pair through p on the caller's
// goroutine — the per-frame path the depth service uses — and records the
// "keymatch", "flow", "propagate+refine" and "frame" stage latencies in m
// when m is non-nil. The result is bit-identical to p.Process.
func ProcessDepthFrame(p *Pipeline, matcher KeyMatcher, left, right *Image, m *Metrics) FrameResult {
	return pipeline.ProcessFrame(p, matcher, left, right, m)
}
