// Command asvdepth demonstrates the ISM pipeline on a generated stereo
// video: it streams frames through the pipeline (asv.StreamDepthFrames),
// prints the per-frame accuracy and arithmetic cost, and summarizes the
// compute saving relative to running the key-frame matcher on every frame.
//
// Usage:
//
//	asvdepth -pw 4 -frames 12 -w 192 -h 120
//	asvdepth -metrics    # per-stage latency table after the run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"asv"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "asvdepth:", err)
		os.Exit(1)
	}
}

// run executes the command with the given arguments, writing the report to
// out. Split from main so the cmd is testable end to end.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("asvdepth", flag.ContinueOnError)
	fs.SetOutput(out)
	pw := fs.Int("pw", 4, "propagation window (1 = key matcher every frame)")
	frames := fs.Int("frames", 12, "number of stereo frames to stream")
	width := fs.Int("w", 192, "frame width")
	height := fs.Int("h", 120, "frame height")
	seed := fs.Int64("seed", 7, "scene seed")
	showMetrics := fs.Bool("metrics", false, "print per-stage latency metrics after the run")
	fixed := fs.Bool("fixed", false, "run the SAD kernels on uint8 samples and uint16 costs instead of float32 (guided refine; the SGM key matcher is integer either way)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	seq := asv.GenerateSequence(asv.SceneConfig{
		W: *width, H: *height, FrameCount: *frames,
		Layers: 3, MinDisp: 2, MaxDisp: 20,
		MaxVel: 1.5, MaxDispVel: 0.3, Ground: true, Noise: 0.01,
		Seed: *seed,
	})

	sgmOpt := asv.DefaultSGMOptions()
	sgmOpt.MaxDisp = 28
	cfg := asv.DefaultPipelineConfig()
	cfg.PW = *pw
	cfg.BM.Fixed = *fixed
	matcher := asv.SGMKeyMatcher{Opt: sgmOpt}

	kernels := "float"
	if *fixed {
		kernels = "fixed-point"
	}
	fmt.Fprintf(out, "ISM over %d frames at %dx%d, PW-%d, key matcher: SGM (%s kernels)\n\n",
		*frames, *width, *height, *pw, kernels)
	fmt.Fprintln(out, "frame  kind     error-%   MOps")

	var reg *asv.Metrics
	if *showMetrics {
		reg = asv.NewMetrics()
	}

	in := make([]asv.StreamFrame, len(seq.Frames))
	for i, fr := range seq.Frames {
		in[i] = asv.StreamFrame{Left: fr.Left, Right: fr.Right}
	}
	results := asv.StreamDepthFrames(matcher, cfg, in, asv.StreamOptions{Metrics: reg})

	var totalMACs, keyMACs int64
	var errSum float64
	for i, res := range results {
		kind := "non-key"
		if res.IsKey {
			kind = "KEY"
		}
		e := asv.ThreePixelError(res.Disparity, seq.Frames[i].GT)
		errSum += e
		totalMACs += res.MACs
		keyMACs += matcher.MACs(*width, *height)
		fmt.Fprintf(out, "%5d  %-7s  %6.2f  %6.0f\n", i, kind, e, float64(res.MACs)/1e6)
	}

	fmt.Fprintf(out, "\nmean three-pixel error: %.2f%%\n", errSum/float64(len(results)))
	fmt.Fprintf(out, "arithmetic saving vs keying every frame: %.1fx\n",
		float64(keyMACs)/float64(totalMACs))
	if reg != nil {
		fmt.Fprintf(out, "\nper-stage metrics:\n%s", reg.Dump())
	}
	return nil
}
