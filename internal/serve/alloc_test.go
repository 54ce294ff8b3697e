package serve

import (
	"bytes"
	"net/http"
	"runtime"
	"runtime/debug"
	"testing"

	"asv/internal/core"
	"asv/internal/imgproc"
	"asv/internal/stereo"
)

// TestDegradedFrameAllocBudget bounds the heap bytes one served frame
// allocates on the bottom rung, at the serve_floor operating point: a
// 160×96 PGM pair uploaded into a best-effort session whose 1 ms deadline
// no rung meets, answered with ?disparity=pfm. Client and server share the
// process, as in the benchmark, so the count covers both ends of the
// loopback: the request and reply plumbing, the multipart decode, the
// frame, and the PFM reply. The uploads are encoded once, before the count.
//
// Measured over 32 warm frames with the collector paused: 234,800 to
// 238,500 bytes a frame. Taking the upsampled disparity (one 61,440-byte
// image) from NewImage instead of the image pool took 300,000 to 305,400;
// buffering the upload with ParseMultipartForm, scanning PGM frames for
// non-finite samples, making the decode scratch per image and writing the
// reply through a chunked per-sample writer took 504,600. The budget is
// 1.1× the measured count; a change that allocates more per frame raises it
// in the same commit, with its reason.
func TestDegradedFrameAllocBudget(t *testing.T) {
	const w, h, frames = 160, 96, 32
	const budget = 262_000
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	t.Setenv("ASV_WORKERS", "2")
	opt := stereo.DefaultSGMOptions()
	opt.MaxDisp = 32
	_, ts := serveWith(t, core.SGMMatcher{Opt: opt}, Config{})
	info := createPresetSession(t, ts.URL, CreateSessionRequest{PW: 4, SLO: "besteffort", DeadlineMs: 1})
	seq := presetSeq(t, w, h, 2)
	bodies, types := make([][]byte, len(seq)), make([]string, len(seq))
	for i, fr := range seq {
		bodies[i], types[i] = multipartBody(t,
			uploadPart{"left", "left.pgm", imgproc.AppendPGM(nil, fr.left)},
			uploadPart{"right", "right.pgm", imgproc.AppendPGM(nil, fr.right)})
	}
	url := ts.URL + "/v1/sessions/" + info.ID + "/frames?disparity=pfm"
	var reply bytes.Buffer
	rung := ""
	post := func(i int) {
		t.Helper()
		resp, err := http.Post(url, types[i%2], bytes.NewReader(bodies[i%2]))
		if err != nil {
			t.Fatal(err)
		}
		reply.Reset()
		_, err = reply.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("frame %d: %d %v %s", i, resp.StatusCode, err, reply.Bytes())
		}
		rung = resp.Header.Get("X-ASV-Rung")
	}
	// Warm up until the controller has given up on every rung above the
	// bottom one.
	for i := 0; i < 4*frames && rung != "quarter-res"; i++ {
		post(i)
	}
	if rung != "quarter-res" {
		t.Fatalf("session still on rung %q after warm-up", rung)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < frames; i++ {
		post(i)
	}
	runtime.ReadMemStats(&m1)
	perFrame := (m1.TotalAlloc - m0.TotalAlloc) / frames
	t.Logf("bottom-rung frame: %d bytes", perFrame)
	if perFrame > budget {
		t.Errorf("a served bottom-rung frame allocated %d bytes, budget %d", perFrame, budget)
	}
}
