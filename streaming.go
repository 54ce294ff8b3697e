package asv

import (
	"runtime"
	"time"

	"asv/internal/core"
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

// PipelineBenchPoint is one serial-vs-pipelined throughput measurement, the
// record format of BENCH_pipeline.json.
type PipelineBenchPoint struct {
	Mode     string  `json:"mode"`  // "serial" or "pipelined"
	Cores    int     `json:"cores"` // GOMAXPROCS during the run
	W        int     `json:"w"`
	H        int     `json:"h"`
	PW       int     `json:"pw"`
	Frames   int     `json:"frames"`
	FPS      float64 `json:"fps"`
	SpeedupX float64 `json:"speedup_x"` // vs serial at the same core count
}

// MeasurePipelineThroughput times the serial ISM path against the streaming
// pipeline on a generated stereo video at each requested GOMAXPROCS value,
// restoring the previous setting afterwards. cmd/asvbench renders the
// result and emits it as BENCH_pipeline.json so later PRs have a
// performance trajectory to compare against.
func MeasurePipelineThroughput(cores []int, frames, w, h int) []PipelineBenchPoint {
	seq := GenerateSequence(SceneConfig{
		W: w, H: h, FrameCount: frames, Layers: 3,
		MinDisp: 2, MaxDisp: 20, MaxVel: 1.5, MaxDispVel: 0.3,
		Ground: true, Noise: 0.01, Seed: 7,
	})
	in := make([]StreamFrame, len(seq.Frames))
	for i, fr := range seq.Frames {
		in[i] = StreamFrame{Left: fr.Left, Right: fr.Right}
	}
	sgmOpt := DefaultSGMOptions()
	sgmOpt.MaxDisp = 24
	matcher := SGMKeyMatcher{Opt: sgmOpt}
	cfg := DefaultPipelineConfig()

	runSerial := func() {
		p := core.New(matcher, cfg)
		for _, fr := range in {
			p.Process(fr.Left, fr.Right)
		}
	}
	runPipelined := func() {
		StreamDepthFrames(matcher, cfg, in, StreamOptions{})
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var out []PipelineBenchPoint
	for _, n := range cores {
		runtime.GOMAXPROCS(n)
		runSerial() // warm caches and buffer pools before timing
		serialFPS := timeFPS(runSerial, len(in))
		pipeFPS := timeFPS(runPipelined, len(in))
		out = append(out,
			PipelineBenchPoint{Mode: "serial", Cores: n, W: w, H: h, PW: cfg.PW,
				Frames: frames, FPS: serialFPS, SpeedupX: 1},
			PipelineBenchPoint{Mode: "pipelined", Cores: n, W: w, H: h, PW: cfg.PW,
				Frames: frames, FPS: pipeFPS, SpeedupX: pipeFPS / serialFPS})
	}
	return out
}

// timeFPS runs fn (which processes frames frames) and returns frames/sec,
// keeping the best of two runs to shed scheduler noise.
func timeFPS(fn func(), frames int) float64 {
	best := time.Duration(1<<63 - 1)
	for run := 0; run < 2; run++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(frames) / best.Seconds()
}
