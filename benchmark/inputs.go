package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"mime/multipart"

	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/imgproc"
	"asv/internal/perception"
	"asv/internal/rectify"
	"asv/internal/serve"
	"asv/internal/stereo"
)

// sceneSeed fixes the geometry and texture of every session's scene, so that
// bad3_pct is scored on one frame set and a change of a tenth of a point is
// visible. The run's -seed draws the sensor noise on both views: the same
// seed gives the same pixels, another seed gives other pixels of the same
// scene.
const sceneSeed = 7

// sensorNoise is dataset.SceneFlowLike's noise level, applied here instead
// of in the generator so that it can follow -seed alone.
const sensorNoise = 0.01

// pair is one stereo pair as the matcher sees it.
type pair struct{ left, right *imgproc.Image }

// upload is one pre-encoded multipart frame submission.
type upload struct {
	body        []byte
	contentType string
	left, right []byte // the two image parts alone, for the decode probes
}

// clip is one session's input: clipFrames frames of a SceneFlow-like scene.
// in holds what the matcher sees — the rendered pair offline, the decoded
// (and, on calibrated sessions, rectified) upload on the serve workloads —
// so that the oracle runs on bit-identical pixels.
type clip struct {
	in      []pair
	gt      []*imgproc.Image
	uploads []upload
	raw     []pair // decoded uploads before rectification (calibrated sessions)
}

// pingPong maps a stream position to a clip frame: 0…n-1…0…, so motion
// stays continuous and a period of 2n-2 drifts against the key schedule.
func pingPong(i, n int) int {
	if n < 2 {
		return 0
	}
	k := i % (2*n - 2)
	if k >= n {
		k = 2*n - 2 - k
	}
	return k
}

// benchCalibration is the rig of the calibrated workload: default
// intrinsics, small non-zero per-eye rotations so rectification is a real
// warp. It goes through its own JSON so the oracle holds exactly the values
// the server parses.
func benchCalibration(w, h int) (*perception.Calibration, error) {
	c := perception.DefaultCalibration(w, h)
	c.LeftRPY = [3]float64{0.004, -0.003, 0.005}
	c.RightRPY = [3]float64{-0.003, 0.004, -0.002}
	return perception.ParseCalibration(c.EncodeJSON())
}

func addNoise(im *imgproc.Image, rng *rand.Rand) {
	for i := range im.Pix {
		im.Pix[i] += float32(rng.NormFloat64() * sensorNoise)
	}
}

// makeClip renders session i's scene and, for the serve workloads, encodes
// every frame as an upload and decodes it again the way the server will.
func makeClip(sp spec, seed int64, i int, calib *perception.Calibration) (*clip, error) {
	scene := dataset.SceneFlowLike(sp.W, sp.H, clipFrames, sceneSeed)[i%26]
	scene.Noise = 0
	seq := dataset.Generate(scene)
	rng := rand.New(rand.NewSource(seed + int64(i)))
	c := &clip{}
	for _, fr := range seq.Frames {
		addNoise(fr.Left, rng)
		addNoise(fr.Right, rng)
		c.gt = append(c.gt, fr.GT)
		if !sp.Serve {
			c.in = append(c.in, pair{fr.Left, fr.Right})
			continue
		}
		left, right := fr.Left, fr.Right
		if calib != nil {
			left = rectify.Misalign(left, calib.Intrinsics(), calib.RotLeft())
			right = rectify.Misalign(right, calib.Intrinsics(), calib.RotRight())
		}
		up, err := encodeUpload(sp.Upload, left, right)
		if err != nil {
			return nil, err
		}
		c.uploads = append(c.uploads, up)
		dl, err := decodePart(sp.Upload, up.left)
		if err != nil {
			return nil, err
		}
		dr, err := decodePart(sp.Upload, up.right)
		if err != nil {
			return nil, err
		}
		if calib != nil {
			c.raw = append(c.raw, pair{dl, dr})
			dl, dr = calib.RectifyPair(dl, dr)
		}
		c.in = append(c.in, pair{dl, dr})
	}
	return c, nil
}

func encodeUpload(format string, left, right *imgproc.Image) (upload, error) {
	var up upload
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, part := range []struct {
		name string
		im   *imgproc.Image
		raw  *[]byte
	}{{"left", left, &up.left}, {"right", right, &up.right}} {
		var img bytes.Buffer
		var err error
		if format == "pfm" {
			err = imgproc.WritePFM(&img, part.im)
		} else {
			err = imgproc.WritePGM(&img, part.im)
		}
		if err != nil {
			return upload{}, fmt.Errorf("encoding %s upload: %w", part.name, err)
		}
		*part.raw = img.Bytes()
		fw, err := mw.CreateFormFile(part.name, part.name+"."+format)
		if err != nil {
			return upload{}, err
		}
		if _, err := fw.Write(img.Bytes()); err != nil {
			return upload{}, err
		}
	}
	if err := mw.Close(); err != nil {
		return upload{}, err
	}
	up.body, up.contentType = body.Bytes(), mw.FormDataContentType()
	return up, nil
}

// decodeLimit is the cap the server decodes uploads under.
var decodeLimit = serve.DefaultConfig().MaxPixels

func decodePart(format string, data []byte) (*imgproc.Image, error) {
	if format == "pfm" {
		return imgproc.ReadPFMLimit(bytes.NewReader(data), decodeLimit)
	}
	return imgproc.ReadPGMLimit(bytes.NewReader(data), decodeLimit)
}

// matcherFor builds the workload's key matcher and ISM configuration.
func matcherFor(sp spec) (core.KeyMatcher, core.Config) {
	opt := stereo.DefaultSGMOptions()
	opt.MaxDisp = sp.MaxDisp
	opt.Fixed = sp.Fixed
	cfg := core.DefaultConfig()
	cfg.PW = sp.PW
	cfg.BM.Fixed = sp.Fixed
	return core.SGMMatcher{Opt: opt}, cfg
}

// oracle is the serial core.Pipeline.Process run over a session's first
// oracleFrames frames: what every gold path must reproduce exactly.
type oracle struct {
	disp  []*imgproc.Image
	isKey []bool
	stats []stereo.DispStats
	cloud [][]byte // calibrated sessions: EncodeCloud(Reproject(disp, left, calib))
	bad3  float64  // mean three-pixel error of disp against ground truth
}

func runOracle(sp spec, c *clip, calib *perception.Calibration) *oracle {
	m, cfg := matcherFor(sp)
	p := core.New(m, cfg)
	o := &oracle{}
	for i := 0; i < oracleFrames; i++ {
		k := pingPong(i, len(c.in))
		res := p.Process(c.in[k].left, c.in[k].right)
		o.disp = append(o.disp, res.Disparity)
		o.isKey = append(o.isKey, res.IsKey)
		o.stats = append(o.stats, stereo.DisparityStats(res.Disparity))
		if calib != nil {
			o.cloud = append(o.cloud, perception.EncodeCloud(perception.Reproject(res.Disparity, c.in[k].left, calib)))
		}
		o.bad3 += stereo.ThreePixelError(res.Disparity, c.gt[k]) / oracleFrames
	}
	return o
}

// sameBits reports whether two disparity maps are bit-identical (NaNs
// included, which == would call unequal).
func sameBits(a, b *imgproc.Image) bool {
	if a.W != b.W || a.H != b.H || len(a.Pix) != len(b.Pix) {
		return false
	}
	for i := range a.Pix {
		if math.Float32bits(a.Pix[i]) != math.Float32bits(b.Pix[i]) {
			return false
		}
	}
	return true
}
