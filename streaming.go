package asv

import (
	"asv/internal/metrics"
	"asv/internal/pipeline"
)

// Streaming (see internal/pipeline): a sequence runs frame by frame through
// one Pipeline on the caller's goroutine, each stage's kernels parallel
// inside the frame, with per-stage latencies recorded in the metrics sink.

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
