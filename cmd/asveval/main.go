// Command asveval is the repository's MiddEval3-style batch evaluator: it
// sweeps the synthetic dataset presets through the full deployment path —
// misalign the rendered pair through a known calibration, rectify it back,
// run ISM matching, reproject to metric depth and a point cloud — and
// scores each configuration against the dense ground truth the generator
// carries. Scores are the MiddEval3-style bad-pixel rates (bad-1, bad-3)
// on ground-truth-valid pixels plus metric depth RMSE, per
// preset × key matcher × propagation window.
//
// The committed BENCH_eval.json is regenerated with `make eval-json`; CI
// regenerates a fresh copy to make sure the harness keeps running.
//
// Usage:
//
//	asveval                              # text table
//	asveval -json BENCH_eval.json        # machine output
//	asveval -presets kitti -matchers sgm -pw 1,4
//	asveval -ladder quality_ladder.json  # price the operating-point ladder
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"asv"
	"asv/internal/quality"
)

// EvalRow is one configuration's scores, averaged over the sequence.
type EvalRow struct {
	Preset   string  `json:"preset"`
	Matcher  string  `json:"matcher"`
	PW       int     `json:"pw"`
	Frames   int     `json:"frames"`
	KeyRate  float64 `json:"key_rate"`      // key frames / frames
	Bad1     float64 `json:"bad1"`          // % of GT-valid pixels with err > 1 px
	Bad3     float64 `json:"bad3"`          // % of GT-valid pixels with err > 3 px
	DepthRMS float64 `json:"depth_rmse_m"`  // metric RMSE where both depths valid
	CloudPts float64 `json:"cloud_points"`  // mean reprojected points per frame
	MMACs    float64 `json:"mmacs_per_frm"` // mean arithmetic cost, 1e6 MACs
}

// EvalReport is the asveval JSON document.
type EvalReport struct {
	W      int       `json:"w"`
	H      int       `json:"h"`
	Frames int       `json:"frames"`
	Seed   int64     `json:"seed"`
	Rows   []EvalRow `json:"rows"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "asveval:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("asveval", flag.ContinueOnError)
	fs.SetOutput(out)
	width := fs.Int("w", 96, "frame width")
	height := fs.Int("h", 64, "frame height")
	frames := fs.Int("frames", 10, "frames per sequence")
	seed := fs.Int64("seed", 9, "scene seed")
	presets := fs.String("presets", "sceneflow,kitti", "comma-separated scene presets (sceneflow|kitti)")
	matchers := fs.String("matchers", "bm,sgm", "comma-separated key matchers (bm|sgm)")
	pws := fs.String("pw", "1,2,4", "comma-separated propagation windows")
	jsonPath := fs.String("json", "", "also write the report to this JSON file")
	ladderPath := fs.String("ladder", "", "price the default operating-point ladder and write it to this JSON file (skips the eval sweep)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var pwList []int
	for _, s := range splitList(*pws) {
		pw, err := strconv.Atoi(s)
		if err != nil || pw < 1 {
			return fmt.Errorf("bad propagation window %q", s)
		}
		pwList = append(pwList, pw)
	}
	presetList, matcherList := splitList(*presets), splitList(*matchers)
	if len(presetList) == 0 || len(matcherList) == 0 || len(pwList) == 0 {
		return fmt.Errorf("presets, matchers and pw must each be non-empty")
	}

	if *ladderPath != "" {
		return priceLadder(fs, out, *ladderPath, *width, *height, *frames, *seed,
			presetList[0], matcherList[0], pwList[0])
	}

	rep := EvalReport{W: *width, H: *height, Frames: *frames, Seed: *seed}
	for _, preset := range presetList {
		seq, err := makeSequence(preset, *width, *height, *frames, *seed)
		if err != nil {
			return err
		}
		for _, matcher := range matcherList {
			km, err := makeMatcher(matcher)
			if err != nil {
				return err
			}
			for _, pw := range pwList {
				row := evalOne(seq, km, pw)
				row.Preset, row.Matcher = preset, matcher
				rep.Rows = append(rep.Rows, row)
			}
		}
	}
	sort.SliceStable(rep.Rows, func(i, j int) bool {
		a, b := rep.Rows[i], rep.Rows[j]
		if a.Preset != b.Preset {
			return a.Preset < b.Preset
		}
		if a.Matcher != b.Matcher {
			return a.Matcher < b.Matcher
		}
		return a.PW < b.PW
	})

	printTable(out, rep)
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *jsonPath)
	}
	return nil
}

// priceLadder scores the committed operating-point ladder against the
// dataset oracle through the exact executor the serving layer degrades
// with, and writes the quality_ladder.json document. Flags the user left
// at their eval defaults fall back to the pricing defaults (96×64, 12
// frames, PW 4) so a bare `-ladder` run regenerates the committed file.
func priceLadder(fs *flag.FlagSet, out io.Writer, path string, w, h, frames int, seed int64, preset, matcher string, pw int) error {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	pc := quality.PriceConfig{Preset: preset}
	if set["w"] {
		pc.W = w
	}
	if set["h"] {
		pc.H = h
	}
	if set["frames"] {
		pc.Frames = frames
	}
	if set["seed"] {
		pc.Seed = seed
	}
	if set["pw"] {
		pc.PW = pw
	}
	km, err := makeMatcher(matcher)
	if err != nil {
		return err
	}
	doc, err := quality.Price(quality.DefaultLadder(), km, pc)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "ladder pricing: %dx%d, %d frames, PW %d, seed %d, preset %s, top matcher %s\n",
		doc.W, doc.H, doc.Frames, doc.PW, doc.Seed, doc.Preset, matcher)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rung\tmatcher\tPW×\tpyr\tkey rate\tbad-1 %\tbad-3 %\tMMACs/frame")
	for _, r := range doc.Rungs {
		m := r.OP.Matcher
		if m == "" {
			m = matcher
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.2f\t%.4f\t%.4f\t%.1f\n",
			r.Name, m, r.OP.PWStretch, r.OP.PyrLevel, r.KeyRate, r.Bad1, r.Bad3, r.MMACs)
	}
	//asvlint:ignore droppederr -- tabwriter to an in-memory/stdout writer
	tw.Flush()

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}

func splitList(s string) []string {
	var list []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			list = append(list, v)
		}
	}
	return list
}

func makeSequence(preset string, w, h, frames int, seed int64) (*asv.StereoSequence, error) {
	var cfg asv.SceneConfig
	switch preset {
	case "sceneflow":
		cfg = asv.SceneFlowLike(w, h, frames, seed)[0]
	case "kitti":
		cfg = asv.KITTILike(w, h, 1, seed)[0]
		cfg.FrameCount = frames
	default:
		return nil, fmt.Errorf("unknown preset %q", preset)
	}
	return asv.GenerateSequence(cfg), nil
}

func makeMatcher(name string) (asv.KeyMatcher, error) {
	switch name {
	case "bm":
		return asv.BMKeyMatcher{Opt: asv.DefaultBMOptions()}, nil
	case "sgm":
		return asv.SGMKeyMatcher{Opt: asv.DefaultSGMOptions()}, nil
	default:
		return nil, fmt.Errorf("unknown matcher %q", name)
	}
}

// evalOne runs one configuration over the sequence: each rendered pair is
// warped through the eval calibration (what the physical cameras would have
// captured), rectified back, matched, and reprojected. The misalign→rectify
// round trip is part of the measurement on purpose — it is the deployment
// path, and its resampling error is charged to every configuration equally.
func evalOne(seq *asv.StereoSequence, km asv.KeyMatcher, pw int) EvalRow {
	w, h := seq.Frames[0].Left.W, seq.Frames[0].Left.H
	calib := asv.DefaultCalibration(w, h)
	calib.LeftRPY = [3]float64{0.004, -0.003, 0.002}
	calib.RightRPY = [3]float64{-0.002, 0.005, -0.003}

	cfg := asv.DefaultPipelineConfig()
	cfg.PW = pw
	pipe := asv.NewPipeline(km, cfg)

	row := EvalRow{PW: pw, Frames: len(seq.Frames)}
	var sqErr, nDepth float64
	var keys int
	for _, fr := range seq.Frames {
		rawL := asv.MisalignImage(fr.Left, calib.Intrinsics(), calib.RotLeft())
		rawR := asv.MisalignImage(fr.Right, calib.Intrinsics(), calib.RotRight())
		recL, recR := calib.RectifyPair(rawL, rawR)
		res := pipe.Process(recL, recR)

		row.Bad1 += asv.DisparityErrorRate(res.Disparity, fr.GT, 1.0)
		row.Bad3 += asv.DisparityErrorRate(res.Disparity, fr.GT, 3.0)
		est := asv.DepthFromDisparity(res.Disparity, calib)
		gt := asv.DepthFromDisparity(fr.GT, calib)
		for i, z := range est.Pix {
			if z > 0 && gt.Pix[i] > 0 {
				d := float64(z - gt.Pix[i])
				sqErr += d * d
				nDepth++
			}
		}
		cloud := asv.ReprojectCloud(res.Disparity, recL, calib)
		row.CloudPts += float64(len(cloud.Points))
		row.MMACs += float64(res.MACs) / 1e6
		if res.IsKey {
			keys++
		}
	}
	n := float64(len(seq.Frames))
	row.Bad1 /= n
	row.Bad3 /= n
	row.CloudPts /= n
	row.MMACs /= n
	row.KeyRate = float64(keys) / n
	if nDepth > 0 {
		row.DepthRMS = math.Sqrt(sqErr / nDepth)
	}
	return row
}

func printTable(out io.Writer, rep EvalReport) {
	fmt.Fprintf(out, "asveval: %dx%d, %d frames, seed %d\n", rep.W, rep.H, rep.Frames, rep.Seed)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "preset\tmatcher\tPW\tkey rate\tbad-1 %\tbad-3 %\tdepth RMSE (m)\tcloud pts\tMMACs/frame")
	for _, r := range rep.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%.4f\t%.4f\t%.4f\t%.0f\t%.1f\n",
			r.Preset, r.Matcher, r.PW, r.KeyRate, r.Bad1, r.Bad3, r.DepthRMS, r.CloudPts, r.MMACs)
	}
	//asvlint:ignore droppederr -- tabwriter to an in-memory/stdout writer
	tw.Flush()
}
