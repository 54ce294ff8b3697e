package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"mime/multipart"
	"net/http"
	"strconv"
	"testing"

	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/imgproc"
	"asv/internal/perception"
	"asv/internal/rectify"
)

// postRawPFM uploads a raw stereo pair as PFM multipart (exact float32
// round trip, unlike PGM) and returns the response.
func postRawPFM(t *testing.T, base, id, query string, left, right *imgproc.Image) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, p := range []struct {
		name string
		im   *imgproc.Image
	}{{"left", left}, {"right", right}} {
		fw, err := mw.CreateFormFile(p.name, p.name+".pfm")
		if err != nil {
			t.Fatal(err)
		}
		if err := imgproc.WritePFM(fw, p.im); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sessions/"+id+"/frames"+query,
		mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func createCalibratedSession(t *testing.T, base string, req CreateSessionRequest, calib *perception.Calibration) SessionInfo {
	t.Helper()
	req.Calibration = calib.EncodeJSON()
	info := createPresetSession(t, base, req)
	if !info.Calibrated {
		t.Fatal("session info does not report calibrated")
	}
	return info
}

// TestCalibratedServingMatchesOfflineRectification is the tentpole's
// acceptance oracle: serving a RAW (misaligned) pair into a calibrated
// session must return disparities bit-identical to rectifying the pair
// offline with rectify.RectifyPair and serving the rectified pair — i.e.
// the in-serving rectification is exactly the offline one. The depth and
// cloud responses must likewise match offline triangulation bit for bit.
func TestCalibratedServingMatchesOfflineRectification(t *testing.T) {
	const (
		wPx, hPx = 64, 48
		nFrames  = 5
		pw       = 2
		seed     = 42
	)

	calib := perception.DefaultCalibration(wPx, hPx)
	calib.LeftRPY = [3]float64{0.004, -0.003, 0.002}
	calib.RightRPY = [3]float64{-0.002, 0.005, -0.003}

	cfg := DefaultConfig()
	cfg.Workers = 2
	_, ts := testServer(t, cfg, 0)
	info := createCalibratedSession(t, ts.URL, CreateSessionRequest{PW: pw}, calib)

	// The "world" is a rectified synthetic sequence; Misalign warps it back
	// into what each physical camera would have captured.
	scene := dataset.KITTILike(wPx, hPx, 1, seed)[0]
	scene.FrameCount = nFrames
	seq := dataset.Generate(scene)
	ocfg := cfg.withDefaults().Pipeline
	ocfg.PW = pw
	oracle := core.New(quickMatcher(0), ocfg)

	for i := 0; i < nFrames; i++ {
		fr := seq.Frames[i]
		rawL := rectify.Misalign(fr.Left, calib.Intrinsics(), calib.RotLeft())
		rawR := rectify.Misalign(fr.Right, calib.Intrinsics(), calib.RotRight())

		// Offline path: rectify first, then match.
		recL, recR := rectify.RectifyPair(rawL, rawR, calib.Intrinsics(), calib.RotLeft(), calib.RotRight())
		want := oracle.Process(recL, recR)

		resp := postRawPFM(t, ts.URL, info.ID, "?disparity=pfm", rawL, rawR)
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("frame %d: status %d err %v: %s", i, resp.StatusCode, err, body)
		}
		got, err := imgproc.ReadPFM(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("frame %d: decoding served disparity: %v", i, err)
		}
		for p := range got.Pix {
			if got.Pix[p] != want.Disparity.Pix[p] {
				t.Fatalf("frame %d: served disparity diverges from offline rectification at pixel %d: %g vs %g",
					i, p, got.Pix[p], want.Disparity.Pix[p])
			}
		}
	}
}

// TestDepthAndCloudResponses drives one calibrated preset session through
// every response format and checks each against offline perception on the
// served disparity.
func TestDepthAndCloudResponses(t *testing.T) {
	const wPx, hPx = 48, 32
	calib := perception.DefaultCalibration(wPx, hPx)

	srv, ts := testServer(t, DefaultConfig(), 0)
	info := createCalibratedSession(t, ts.URL, CreateSessionRequest{
		PW: 2, Preset: "sceneflow", W: wPx, H: hPx, Frames: 8, Seed: 3,
	}, calib)

	get := func(query string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sessions/"+info.ID+"/frames"+query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d err %v: %s", query, resp.StatusCode, err, body)
		}
		return resp, body
	}

	// Frame 0: the plain disparity format still works on a calibrated
	// session.
	// A PFM reply is one buffer with its length in the header, not a
	// chunked stream.
	oneWrite := func(query string, resp *http.Response, body []byte) {
		t.Helper()
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: Content-Length %d, transfer encoding %v, for a %d-byte body",
				query, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
	resp, dispBytes := get("?disparity=pfm")
	oneWrite("?disparity=pfm", resp, dispBytes)
	if _, err := imgproc.ReadPFM(bytes.NewReader(dispBytes)); err != nil {
		t.Fatal(err)
	}

	// Frame 1 as metric depth: right geometry, nonnegative everywhere
	// (invalid disparities map to 0), and not entirely invalid.
	resp, depthBytes := get("?depth=pfm")
	oneWrite("?depth=pfm", resp, depthBytes)
	depth, err := imgproc.ReadPFM(bytes.NewReader(depthBytes))
	if err != nil {
		t.Fatal(err)
	}
	if depth.W != wPx || depth.H != hPx {
		t.Fatalf("depth geometry %dx%d", depth.W, depth.H)
	}
	valid := 0
	for _, z := range depth.Pix {
		if z < 0 {
			t.Fatal("negative depth")
		}
		if z > 0 {
			valid++
		}
	}
	if valid == 0 {
		t.Fatal("depth map is entirely invalid")
	}

	// Frame 2 as binary cloud: an ASVPCD body (magic, version, grid, point
	// count, 16 bytes a point, CRC; the codec itself is pinned in
	// internal/perception) whose grid matches and whose point count the
	// stats headers agree with.
	resp, cloudBytes := get("?cloud=bin")
	if len(cloudBytes) < 23 || string(cloudBytes[:6]) != "ASVPCD" {
		t.Fatalf("served cloud is not ASVPCD: %q", cloudBytes[:min(len(cloudBytes), 8)])
	}
	cloudW, cloudH := binary.LittleEndian.Uint32(cloudBytes[7:]), binary.LittleEndian.Uint32(cloudBytes[11:])
	points := int(binary.LittleEndian.Uint32(cloudBytes[15:]))
	if cloudW != wPx || cloudH != hPx {
		t.Fatalf("cloud grid %dx%d", cloudW, cloudH)
	}
	if len(cloudBytes) != 23+16*points {
		t.Fatalf("cloud of %d points is %d bytes", points, len(cloudBytes))
	}
	if n, _ := strconv.Atoi(resp.Header.Get("X-ASV-Points")); n != points {
		t.Fatalf("X-ASV-Points %d, body has %d", n, points)
	}
	if points == 0 {
		t.Fatal("served cloud is empty")
	}
	if resp.Header.Get("X-ASV-Depth-P50") == "" || resp.Header.Get("X-ASV-Depth-P90") == "" {
		t.Fatal("depth percentile headers missing")
	}

	// Frame 3 as ASCII PLY, frame 4 as binary PLY: header shape only (the
	// writers are pinned in internal/perception).
	_, ply := get("?cloud=ply")
	if !bytes.HasPrefix(ply, []byte("ply\nformat ascii 1.0\n")) {
		t.Fatalf("ascii PLY header: %q", ply[:24])
	}
	_, plyb := get("?cloud=plybin")
	if !bytes.HasPrefix(plyb, []byte("ply\nformat binary_little_endian 1.0\n")) {
		t.Fatal("binary PLY header wrong")
	}

	// Counters moved.
	c := srv.CountersSnapshot()
	if c["depth_maps_served"].(int64) != 1 || c["clouds_served"].(int64) != 3 {
		t.Fatalf("perception counters: depth=%v clouds=%v", c["depth_maps_served"], c["clouds_served"])
	}
	if c["cloud_points"].(int64) < int64(points) {
		t.Fatalf("cloud_points %v", c["cloud_points"])
	}

	// The calibration survives snapshot migration: snapshot the session,
	// restore it into a fresh server, and the restored session still serves
	// depth.
	snap := getSnapshot(t, ts.URL, info.ID)
	_, ts2 := testServer(t, DefaultConfig(), 0)
	if code, body := putSnapshot(t, ts2.URL, info.ID, snap); code != http.StatusOK {
		t.Fatalf("PUT snapshot: %d: %s", code, body)
	}
	resp2, err := http.Post(ts2.URL+"/v1/sessions/"+info.ID+"/frames?depth=pfm", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("depth after migration: %d: %s", resp2.StatusCode, b2)
	}
	if !bytes.HasPrefix(b2, []byte("Pf")) {
		t.Fatal("migrated depth reply is not PFM")
	}
}

// TestReplyFormatValidation pins the 400 class: bad format strings,
// conflicting formats, invalid calibration JSON, and depth/cloud against an
// uncalibrated session are all refused before admission.
func TestReplyFormatValidation(t *testing.T) {
	_, ts := testServer(t, DefaultConfig(), 0)
	plain := createPresetSession(t, ts.URL, CreateSessionRequest{
		Preset: "sceneflow", W: 32, H: 24, Frames: 2, PW: 1,
	})

	post := func(url string, body []byte) int {
		t.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	frames := ts.URL + "/v1/sessions/" + plain.ID + "/frames"
	for _, q := range []string{"?depth=pfm", "?cloud=ply", "?cloud=nope", "?disparity=png", "?disparity=pfm&depth=pfm"} {
		if code := post(frames+q, nil); code != http.StatusBadRequest {
			t.Errorf("%s on uncalibrated session: %d, want 400", q, code)
		}
	}

	// Invalid calibration at create time → 400 (typed perception error).
	req, _ := json.Marshal(map[string]any{
		"preset": "sceneflow", "w": 32, "h": 24,
		"calibration": map[string]any{"fx": -1, "fy": 10, "cx": 1, "cy": 1, "baseline_m": 0.1},
	})
	if code := post(ts.URL+"/v1/sessions", req); code != http.StatusBadRequest {
		t.Errorf("invalid calibration: %d, want 400", code)
	}
}
