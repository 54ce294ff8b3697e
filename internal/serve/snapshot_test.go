package serve

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/flow"
	"asv/internal/imgproc"
	"asv/internal/perception"
	"asv/internal/stereo"
)

// getSnapshot fetches a session's snapshot, retrying briefly on 409 (frames
// in flight) — the documented client protocol.
func getSnapshot(t *testing.T, base, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/sessions/" + id + "/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			if v := resp.Header.Get("X-ASV-Snapshot-Version"); v != strconv.Itoa(SnapshotVersion) {
				t.Fatalf("snapshot version header %q, want %d", v, SnapshotVersion)
			}
			return body
		case http.StatusConflict:
			if time.Now().After(deadline) {
				t.Fatalf("session %s never became quiescent", id)
			}
			time.Sleep(2 * time.Millisecond)
		default:
			t.Fatalf("GET snapshot: %s: %s", resp.Status, body)
		}
	}
}

func putSnapshot(t *testing.T, base, id string, buf []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/sessions/"+id+"/snapshot", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

// submitPFM posts one preset frame and returns the frame index, key flag,
// MACs and the raw PFM disparity bytes.
func submitPFM(t *testing.T, base, id string) (frame int, isKey bool, macs int64, pfm []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/sessions/"+id+"/frames?disparity=pfm", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("frame: status %d err %v: %s", resp.StatusCode, err, body)
	}
	frame, _ = strconv.Atoi(resp.Header.Get("X-ASV-Frame"))
	isKey, _ = strconv.ParseBool(resp.Header.Get("X-ASV-Is-Key"))
	macs, _ = strconv.ParseInt(resp.Header.Get("X-ASV-MACs"), 10, 64)
	return frame, isKey, macs, body
}

// TestSnapshotRoundTripEveryPWPhase is the snapshot correctness oracle: a
// session cut at EVERY phase of the propagation window — right after a key
// frame, mid-propagation, on the frame before the next key — and restored
// into a completely fresh server must continue the stream bit-identically
// to an uninterrupted serial pipeline. Any divergence means the snapshot
// missed a piece of ISM state.
func TestSnapshotRoundTripEveryPWPhase(t *testing.T) {
	const (
		wPx, hPx = 64, 48
		nFrames  = 7
		pw       = 3
		seed     = 77
	)

	cfg := DefaultConfig()
	cfg.Workers = 2
	_, tsA := testServer(t, cfg, 0)
	info := createPresetSession(t, tsA.URL, CreateSessionRequest{
		PW: pw, Preset: "sceneflow", W: wPx, H: hPx, Frames: nFrames, Seed: seed,
	})

	// Serial oracle over the identical generated sequence.
	scene := dataset.SceneFlowLike(wPx, hPx, nFrames, seed)[0]
	seq := dataset.Generate(scene)
	ocfg := cfg.withDefaults().Pipeline
	ocfg.PW = pw
	oracle := core.New(quickMatcher(0), ocfg)
	want := make([]core.Result, nFrames)
	for i := 0; i < nFrames; i++ {
		want[i] = oracle.Process(seq.Frames[i].Left, seq.Frames[i].Right)
	}

	// Drive server A through the stream, capturing a snapshot after every
	// frame. snaps[k] holds the state with k frames completed.
	snaps := make([][]byte, nFrames)
	for i := 0; i < nFrames-1; i++ {
		frame, isKey, _, _ := submitPFM(t, tsA.URL, info.ID)
		if frame != i || isKey != want[i].IsKey {
			t.Fatalf("source server frame %d: got index %d key=%v", i, frame, isKey)
		}
		snaps[i+1] = getSnapshot(t, tsA.URL, info.ID)
	}

	for cut := 1; cut < nFrames; cut++ {
		t.Run("cut="+strconv.Itoa(cut), func(t *testing.T) {
			_, tsB := testServer(t, cfg, 0)
			if code, body := putSnapshot(t, tsB.URL, info.ID, snaps[cut]); code != http.StatusOK {
				t.Fatalf("PUT snapshot: %d: %s", code, body)
			}
			for i := cut; i < nFrames; i++ {
				frame, isKey, macs, pfm := submitPFM(t, tsB.URL, info.ID)
				if frame != i {
					t.Fatalf("restored stream at %d: server says frame %d", i, frame)
				}
				if isKey != want[i].IsKey || macs != want[i].MACs {
					t.Fatalf("frame %d: key=%v macs=%d, oracle key=%v macs=%d",
						i, isKey, macs, want[i].IsKey, want[i].MACs)
				}
				got, err := imgproc.ReadPFM(bytes.NewReader(pfm))
				if err != nil {
					t.Fatalf("frame %d: decoding PFM: %v", i, err)
				}
				if got.W != want[i].Disparity.W || got.H != want[i].Disparity.H {
					t.Fatalf("frame %d: %dx%d vs oracle %dx%d", i, got.W, got.H,
						want[i].Disparity.W, want[i].Disparity.H)
				}
				for p := range got.Pix {
					if got.Pix[p] != want[i].Disparity.Pix[p] {
						t.Fatalf("cut %d frame %d: disparity diverges at pixel %d: %g vs %g",
							cut, i, p, got.Pix[p], want[i].Disparity.Pix[p])
					}
				}
			}
		})
	}
}

func TestSnapshotHTTPErrors(t *testing.T) {
	cfg := DefaultConfig()
	_, ts := testServer(t, cfg, 0)

	// Unknown session.
	resp, err := http.Get(ts.URL + "/v1/sessions/nosuch/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET snapshot of unknown session: %d, want 404", resp.StatusCode)
	}

	// Structurally invalid bytes.
	if code, _ := putSnapshot(t, ts.URL, "abc", []byte("not a snapshot at all")); code != http.StatusBadRequest {
		t.Fatalf("PUT garbage: %d, want 400", code)
	}

	// Valid snapshot PUT under the wrong id.
	info := createPresetSession(t, ts.URL, CreateSessionRequest{
		Preset: "sceneflow", W: 48, H: 32, Frames: 3, PW: 2,
	})
	submitPFM(t, ts.URL, info.ID)
	snap := getSnapshot(t, ts.URL, info.ID)
	if code, body := putSnapshot(t, ts.URL, "otherid", snap); code != http.StatusBadRequest {
		t.Fatalf("PUT under mismatched id: %d: %s, want 400", code, body)
	}

	// Semantically unacceptable: the stream is well formed but its preset is
	// one frame past the server's cap → 422, distinct from the 400 class.
	// The cap is checked before the preset is rendered, so this stays cheap.
	long, err := DecodeSnapshot(snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	long.Preset.Scene.FrameCount = maxPresetFrames + 1
	if code, body := putSnapshot(t, ts.URL, info.ID, EncodeSnapshot(long)); code != http.StatusUnprocessableEntity || !strings.Contains(body, "frame cap") {
		t.Fatalf("PUT over preset cap: %d: %s, want 422 naming the frame cap", code, body)
	}
}

// A well-formed snapshot whose temporal state is inconsistent is refused on
// restore with 422 and installs nothing: previous-frame images with no key
// frame counted (since-key 0) get the outcome a partial state gets.
func TestRestoreRefusesInconsistentState(t *testing.T) {
	_, ts := testServer(t, DefaultConfig(), 0)
	im := imgproc.NewImage(8, 6)
	for name, st := range map[string]core.State{
		"partial":     {FrameIdx: 2, SinceKey: 1, PrevLeft: im},
		"since-key 0": {FrameIdx: 2, PrevLeft: im, PrevRight: im, PrevDisp: im},
	} {
		snap := EncodeSnapshot(&SessionSnapshot{
			ID: "bad-state",
			Pipeline: core.Config{PW: 3, FlowScale: 2, RefineR: 3,
				BM: DefaultConfig().Pipeline.BM, Flow: DefaultConfig().Pipeline.Flow},
			W: 8, H: 6, Frames: 2, KeyFrames: 1,
			State: st,
		})
		if code, body := putSnapshot(t, ts.URL, "bad-state", snap); code != http.StatusUnprocessableEntity {
			t.Errorf("%s: PUT snapshot: %d: %s, want 422", name, code, body)
		}
		resp, err := http.Get(ts.URL + "/v1/sessions/bad-state")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: refused snapshot left a session behind (GET %d)", name, resp.StatusCode)
		}
	}
}

// A well-formed snapshot whose pipeline options core.New would refuse — a
// zero flow scale or refine radius, or flow options the Farneback kernels
// would panic on: a Gaussian sigma ≤ 0 or past the radius cap, a polynomial
// radius of 0, a polynomial sigma ≤ 0 or one that leaves the expansion's
// normal matrix singular — is refused on restore with 422 and installs
// nothing. The
// right eye's flow runs on a goroutine the worker's recover does not cover,
// so an accepted one would end the process on its first non-key frame; the
// server must go on serving its other sessions.
func TestRestoreRefusesInvalidPipeline(t *testing.T) {
	_, ts := testServer(t, DefaultConfig(), 0)
	info := createPresetSession(t, ts.URL, CreateSessionRequest{Preset: "sceneflow", W: 32, H: 24, Frames: 4, PW: 2})
	submitPFM(t, ts.URL, info.ID) // the key frame: the next one runs the flow
	good, err := DecodeSnapshot(getSnapshot(t, ts.URL, info.ID), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		set  func(*core.Config)
		want int // 0: 422, a well-formed snapshot the pipeline refuses
	}{
		{"flow scale 0", func(c *core.Config) { c.FlowScale = 0 }, 0},
		{"refine radius 0", func(c *core.Config) { c.RefineR = 0 }, 0},
		{"window sigma 0", func(c *core.Config) { c.Flow.WinSigma = 0 }, 0},
		{"window sigma -1", func(c *core.Config) { c.Flow.WinSigma = -1 }, 0},
		{"window sigma past the cap", func(c *core.Config) { c.Flow.WinSigma = 85.34 }, 0},
		{"window sigma 1e15", func(c *core.Config) { c.Flow.WinSigma = 1e15 }, 0},
		{"pyramid sigma 0", func(c *core.Config) { c.Flow.PyrSigma = 0 }, 0},
		{"pyramid sigma -1", func(c *core.Config) { c.Flow.PyrSigma = -1 }, 0},
		{"polynomial radius 0", func(c *core.Config) { c.Flow.PolyR = 0 }, 0},
		{"polynomial sigma 0", func(c *core.Config) { c.Flow.PolySigma = 0 }, 0},
		{"polynomial sigma -1", func(c *core.Config) { c.Flow.PolySigma = -1 }, 0},
		// The codec refuses a non-finite float before the pipeline sees it.
		{"polynomial sigma NaN", func(c *core.Config) { c.Flow.PolySigma = math.NaN() }, http.StatusBadRequest},
		// Singular normal matrix: the expansion would panic on the flow
		// goroutine of the first non-key frame, outside any recover.
		{"polynomial sigma 0.1", func(c *core.Config) { c.Flow.PolySigma = 0.1 }, 0},
	} {
		snap := *good
		snap.ID = "bad-pipe"
		tc.set(&snap.Pipeline)
		want := cmp.Or(tc.want, http.StatusUnprocessableEntity)
		if code, body := putSnapshot(t, ts.URL, snap.ID, EncodeSnapshot(&snap)); code != want {
			t.Errorf("%s: PUT snapshot: %d: %s, want %d", tc.name, code, body, want)
			if code == http.StatusOK {
				submitPFM(t, ts.URL, snap.ID) // the frame the refusal is for
			}
		}
		resp, err := http.Get(ts.URL + "/v1/sessions/bad-pipe")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: refused snapshot left a session behind (GET %d)", tc.name, resp.StatusCode)
		}
	}
	if frame, isKey, _, _ := submitPFM(t, ts.URL, info.ID); frame != 1 || isKey {
		t.Fatalf("the healthy session's next frame is %d (key %v), want non-key frame 1", frame, isKey)
	}
}

// PUT snapshot answers 413 only to a body past its cap; any other failure
// to read the body is a 400.
func TestPutSnapshotBodyErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPixels = 16
	srv, _ := testServer(t, cfg, 0)
	limit := 16*12 + 1<<20 // the handler's cap at MaxPixels 16
	for _, tc := range []struct {
		name string
		body io.Reader
		want int
	}{
		{"failing reader", iotest.ErrReader(errors.New("connection reset")), http.StatusBadRequest},
		{"over the cap", bytes.NewReader(make([]byte, limit+1)), http.StatusRequestEntityTooLarge},
		{"at the cap", bytes.NewReader(make([]byte, limit)), http.StatusBadRequest}, // read, then not a snapshot
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/sessions/abc/snapshot", tc.body))
		if rec.Code != tc.want {
			t.Errorf("%s: %d: %s, want %d", tc.name, rec.Code, rec.Body, tc.want)
		}
	}
}

// TestSnapshotDecodeRejectsDamage feeds the decoder every truncation and
// every single-byte corruption of a real snapshot. Each must fail with a
// typed *SnapshotError — never a panic, never silent acceptance (the CRC
// trailer guarantees the single-byte case).
func TestSnapshotDecodeRejectsDamage(t *testing.T) {
	cfg := DefaultConfig()
	_, ts := testServer(t, cfg, 0)
	info := createPresetSession(t, ts.URL, CreateSessionRequest{
		Preset: "sceneflow", W: 32, H: 24, Frames: 3, PW: 2,
	})
	submitPFM(t, ts.URL, info.ID)
	valid := getSnapshot(t, ts.URL, info.ID)

	if _, err := DecodeSnapshot(valid, 0); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	for n := 0; n < len(valid); n++ {
		_, err := DecodeSnapshot(valid[:n], 0)
		var se *SnapshotError
		if err == nil || !errors.As(err, &se) {
			t.Fatalf("truncation to %d bytes: err=%v, want *SnapshotError", n, err)
		}
	}
	for i := 0; i < len(valid); i++ {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x40
		_, err := DecodeSnapshot(mut, 0)
		var se *SnapshotError
		if err == nil || !errors.As(err, &se) {
			t.Fatalf("flip at byte %d: err=%v, want *SnapshotError", i, err)
		}
	}

	// Trailing bytes after a well-formed payload are damage too, even with
	// a recomputed CRC covering them.
	padded := append(append([]byte(nil), valid[:len(valid)-4]...), 0, 0, 0)
	padded = binary.LittleEndian.AppendUint32(padded, crc32.ChecksumIEEE(padded))
	_, err := DecodeSnapshot(padded, 0)
	var se *SnapshotError
	if err == nil || !errors.As(err, &se) {
		t.Fatalf("trailing bytes: err=%v, want *SnapshotError", err)
	}
}

// FuzzSnapshotDecode hammers the decoder with mutated snapshot bytes. The
// contract under fuzzing: never panic, fail only with *SnapshotError, and
// anything accepted must survive a re-encode/re-decode round trip.
func FuzzSnapshotDecode(f *testing.F) {
	// Seed corpus: a real mid-stream preset snapshot, a minimal fresh
	// session, and a few obviously damaged variants.
	full := EncodeSnapshot(&SessionSnapshot{
		ID: "seed1",
		Pipeline: core.Config{PW: 3, FlowScale: 2, RefineR: 2,
			BM: DefaultConfig().Pipeline.BM, Flow: DefaultConfig().Pipeline.Flow},
		Frames: 2, KeyFrames: 1, W: 8, H: 6,
		State: core.State{
			FrameIdx: 2, SinceKey: 1,
			PrevLeft:  imgproc.NewImage(8, 6),
			PrevRight: imgproc.NewImage(8, 6),
			PrevDisp:  imgproc.NewImage(8, 6),
		},
		Preset: &PresetSnapshot{
			Name:  "sceneflow",
			Scene: dataset.SceneFlowLike(32, 24, 3, 9)[0],
			Next:  2,
		},
	})
	fresh := EncodeSnapshot(&SessionSnapshot{
		ID: "seed2", Pipeline: core.Config{PW: 1, BM: DefaultConfig().Pipeline.BM, Flow: DefaultConfig().Pipeline.Flow},
	})
	calibrated := EncodeSnapshot(&SessionSnapshot{
		ID: "seed3", Pipeline: core.Config{PW: 2, BM: DefaultConfig().Pipeline.BM, Flow: DefaultConfig().Pipeline.Flow},
		Calib: perception.DefaultCalibration(32, 24),
	})
	f.Add(full)
	f.Add(fresh)
	f.Add(calibrated)
	f.Add(full[:len(full)/2])
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data, 1<<16)
		if err != nil {
			var se *SnapshotError
			if !errors.As(err, &se) {
				t.Fatalf("decoder returned untyped error %T: %v", err, err)
			}
			return
		}
		// Accepted input must round-trip through the encoder.
		re := EncodeSnapshot(snap)
		if _, err := DecodeSnapshot(re, 1<<16); err != nil {
			t.Fatalf("re-encoded accepted snapshot fails to decode: %v", err)
		}
	})
}

// TestSnapshotVersionCompat pins the codec's cross-version behavior: a
// version-1 snapshot (committed fixture, generated by the v1 encoder before
// the calibration block was added) must be refused with a typed
// *SnapshotError naming the version — not mis-parsed, not silently
// upgraded. The fixture is bytes-on-disk so this keeps guarding even after
// the v1 encoder is long gone.
func TestSnapshotVersionCompat(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "snapshot_v1.asvsnap"))
	if err != nil {
		t.Fatalf("reading v1 fixture: %v", err)
	}
	// Fixture sanity: correct magic, version byte 1.
	if string(old[:7]) != snapshotMagic || old[7] != 1 {
		t.Fatalf("fixture is not a v1 snapshot (magic %q version %d)", old[:7], old[7])
	}
	_, err = DecodeSnapshot(old, 0)
	var se *SnapshotError
	if err == nil || !errors.As(err, &se) {
		t.Fatalf("v1 snapshot: err=%v, want *SnapshotError", err)
	}
	if !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("v1 rejection %q does not name the version", err)
	}

	// And the current version still round-trips, calibration included.
	calib := perception.DefaultCalibration(32, 24)
	calib.LeftRPY = [3]float64{0.01, -0.02, 0.005}
	snap := &SessionSnapshot{
		ID: "v2-rt", Pipeline: core.Config{PW: 2, BM: DefaultConfig().Pipeline.BM, Flow: DefaultConfig().Pipeline.Flow},
		Calib: calib,
	}
	got, err := DecodeSnapshot(EncodeSnapshot(snap), 0)
	if err != nil {
		t.Fatalf("v2 round trip: %v", err)
	}
	if got.Calib == nil || *got.Calib != *calib {
		t.Fatalf("calibration did not survive the round trip: %+v", got.Calib)
	}
}

// TestEvictionSpillsAndRestores proves eviction-to-disk: an LRU-evicted
// session transparently comes back from the spill store on its next use,
// with its counters and ISM state intact.
func TestEvictionSpillsAndRestores(t *testing.T) {
	const (
		wPx, hPx = 48, 32
		nFrames  = 4
		pw       = 2
		seed     = 5
	)
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.MaxSessions = 1
	cfg.SpillDir = dir
	srv, ts := testServer(t, cfg, 0)

	infoA := createPresetSession(t, ts.URL, CreateSessionRequest{
		PW: pw, Preset: "sceneflow", W: wPx, H: hPx, Frames: nFrames, Seed: seed,
	})
	submitPFM(t, ts.URL, infoA.ID)
	submitPFM(t, ts.URL, infoA.ID)
	// The snapshot handler doubles as a quiescence barrier here: once it
	// answers 200, A has no pending frames and is evictable.
	getSnapshot(t, ts.URL, infoA.ID)

	// Creating B displaces A (table capacity 1) → A spills to disk.
	createPresetSession(t, ts.URL, CreateSessionRequest{
		Preset: "sceneflow", W: 32, H: 24, Frames: 2, PW: 1,
	})
	if srv.tab.get(infoA.ID) != nil {
		t.Fatal("session A still resident after capacity eviction")
	}
	if _, err := os.Stat(filepath.Join(dir, infoA.ID+".asvsnap")); err != nil {
		t.Fatalf("no spill file for evicted session: %v", err)
	}
	if srv.spilled.Load() == 0 {
		t.Fatal("spill counter did not move")
	}

	// Using A again restores it from disk mid-stream: the next frame index
	// continues at 2 and the disparity matches the uninterrupted oracle.
	scene := dataset.SceneFlowLike(wPx, hPx, nFrames, seed)[0]
	seq := dataset.Generate(scene)
	ocfg := cfg.withDefaults().Pipeline
	ocfg.PW = pw
	oracle := core.New(quickMatcher(0), ocfg)
	var want core.Result
	for i := 0; i < 3; i++ {
		want = oracle.Process(seq.Frames[i].Left, seq.Frames[i].Right)
	}

	frame, isKey, _, pfm := submitPFM(t, ts.URL, infoA.ID)
	if frame != 2 {
		t.Fatalf("restored session resumed at frame %d, want 2", frame)
	}
	if isKey != want.IsKey {
		t.Fatalf("restored frame 2: key=%v, oracle %v", isKey, want.IsKey)
	}
	got, err := imgproc.ReadPFM(bytes.NewReader(pfm))
	if err != nil {
		t.Fatal(err)
	}
	for p := range got.Pix {
		if got.Pix[p] != want.Disparity.Pix[p] {
			t.Fatalf("restored frame 2 diverges at pixel %d: %g vs %g",
				p, got.Pix[p], want.Disparity.Pix[p])
		}
	}
	if srv.diskRestores.Load() != 1 {
		t.Fatalf("disk restore counter %d, want 1", srv.diskRestores.Load())
	}
}

// TestCheckpointAdoption is crash recovery in miniature: with per-frame
// checkpoints into a shared spill directory, a second server that has never
// seen the session adopts it at exactly the frame the client last saw.
func TestCheckpointAdoption(t *testing.T) {
	const (
		wPx, hPx = 48, 32
		nFrames  = 5
		pw       = 2
		seed     = 11
	)
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.SpillDir = dir
	cfg.CheckpointEvery = 1
	_, ts1 := testServer(t, cfg, 0)

	info := createPresetSession(t, ts1.URL, CreateSessionRequest{
		PW: pw, Preset: "sceneflow", W: wPx, H: hPx, Frames: nFrames, Seed: seed,
	})
	for i := 0; i < 3; i++ {
		submitPFM(t, ts1.URL, info.ID)
	}
	// Checkpoint-before-reply: the store must already hold frame-3 state.
	if _, err := os.Stat(filepath.Join(dir, info.ID+".asvsnap")); err != nil {
		t.Fatalf("no checkpoint after 3 acknowledged frames: %v", err)
	}

	scene := dataset.SceneFlowLike(wPx, hPx, nFrames, seed)[0]
	seq := dataset.Generate(scene)
	ocfg := cfg.withDefaults().Pipeline
	ocfg.PW = pw
	oracle := core.New(quickMatcher(0), ocfg)
	var want core.Result
	for i := 0; i < 4; i++ {
		want = oracle.Process(seq.Frames[i].Left, seq.Frames[i].Right)
	}

	// A different server over the same spill store picks the session up.
	srv2, ts2 := testServer(t, cfg, 0)
	frame, isKey, _, pfm := submitPFM(t, ts2.URL, info.ID)
	if frame != 3 {
		t.Fatalf("adopted session resumed at frame %d, want 3", frame)
	}
	if isKey != want.IsKey {
		t.Fatalf("adopted frame 3: key=%v, oracle %v", isKey, want.IsKey)
	}
	got, err := imgproc.ReadPFM(bytes.NewReader(pfm))
	if err != nil {
		t.Fatal(err)
	}
	for p := range got.Pix {
		if got.Pix[p] != want.Disparity.Pix[p] {
			t.Fatalf("adopted frame 3 diverges at pixel %d: %g vs %g",
				p, got.Pix[p], want.Disparity.Pix[p])
		}
	}
	if srv2.diskRestores.Load() != 1 {
		t.Fatalf("adopting server's disk restore counter %d, want 1", srv2.diskRestores.Load())
	}
}

// TestClientSuppliedSessionID covers the gateway's id-injection contract:
// a create request may carry its own id (the gateway mints one so it can
// consistent-hash before the shard ever sees the session).
func TestClientSuppliedSessionID(t *testing.T) {
	_, ts := testServer(t, DefaultConfig(), 0)

	info := createPresetSession(t, ts.URL, CreateSessionRequest{
		ID: "gw-minted-01", Preset: "sceneflow", W: 32, H: 24, Frames: 2, PW: 1,
	})
	if info.ID != "gw-minted-01" {
		t.Fatalf("server re-minted id %q", info.ID)
	}

	// Duplicate id → 409.
	buf := []byte(`{"id":"gw-minted-01","preset":"sceneflow","w":32,"h":24,"frames":2,"pw":1}`)
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate id: %d, want 409", resp.StatusCode)
	}

	// Unsafe id → 400.
	buf = []byte(`{"id":"../evil","preset":"sceneflow","w":32,"h":24,"frames":2,"pw":1}`)
	resp, err = http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid id: %d, want 400", resp.StatusCode)
	}
}

// fixtureSnapshot is the session testdata/snapshot_v2_sad.asvsnap holds: every
// optional block present (adaptive config, all three state images with
// non-constant pixels, a preset past its first frame, a calibration with
// rotations) and every field set to a value distinct from its neighbours,
// so a swapped or dropped field changes the bytes.
func fixtureSnapshot() *SessionSnapshot {
	img := func(w, h int, base float32) *imgproc.Image {
		im := imgproc.NewImage(w, h)
		for i := range im.Pix {
			im.Pix[i] = base + float32(i%7)*0.25 - float32(i/w)*1.5
		}
		return im
	}
	return &SessionSnapshot{
		ID: "fixture-v2",
		Pipeline: core.Config{
			PW: 3, Postprocess: true, FlowScale: 2, RefineR: 4,
			BM:       stereo.BMOptions{BlockR: 2, MaxDisp: 24, Subpixel: true, Fixed: true},
			Flow:     flow.Options{Levels: 2, PyrSigma: 0.9, PolySigma: 1.1, PolyR: 2, WinSigma: 1.8, Iters: 3},
			Adaptive: &core.AdaptiveConfig{MaxWindow: 5, MotionThresholdPx: 1.75},
		},
		Frames: 5, KeyFrames: 2, W: 10, H: 6,
		State: core.State{
			FrameIdx: 5, SinceKey: 2, NeedKey: true,
			PrevLeft:  img(10, 6, 10),
			PrevRight: img(10, 6, 20),
			PrevDisp:  img(10, 6, 3),
		},
		Preset: &PresetSnapshot{
			Name: "kitti",
			Scene: dataset.SceneConfig{W: 40, H: 24, FrameCount: 9, Layers: 2,
				MinDisp: 1.5, MaxDisp: 14, MaxVel: 2.5, MaxDispVel: 0.5, Ground: true,
				Noise: 0.02, RightGain: 1.1, Seed: 42},
			Next: 5,
		},
		Calib: &perception.Calibration{Fx: 30.5, Fy: 31, Cx: 19.5, Cy: 11.75, BaselineM: 0.12,
			LeftRPY: [3]float64{0.01, -0.02, 0.005}, RightRPY: [3]float64{-0.004, 0.003, 0.002}},
	}
}

// TestSnapshotV2Fixture pins the v2 wire format byte for byte: the committed
// fixture, written by the v2 encoder, decodes to fixtureSnapshot and
// re-encodes to the identical bytes. A codec change that moves, drops or
// re-types a field fails here even if it still round-trips its own output.
func TestSnapshotV2Fixture(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "snapshot_v2_sad.asvsnap"))
	if err != nil {
		t.Fatalf("reading v2 fixture: %v", err)
	}
	got, err := DecodeSnapshot(fixture, 0)
	if err != nil {
		t.Fatalf("decoding v2 fixture: %v", err)
	}
	if want := fixtureSnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("v2 fixture decodes to\n%+v\nwant\n%+v", got, want)
	}
	if re := EncodeSnapshot(got); !bytes.Equal(re, fixture) {
		t.Fatalf("re-encoding the v2 fixture gives %d bytes that differ from its %d", len(re), len(fixture))
	}
}

// withBMSlots returns the SAD fixture with its block-matching uniqueness
// ratio and census radius slots set to uniq and census, and the CRC
// recomputed. The slots follow the magic, the version, fixtureSnapshot's
// 10-byte id and the pipeline's seven leading fields.
func withBMSlots(t *testing.T, uniq float64, census uint32) []byte {
	t.Helper()
	fixture, err := os.ReadFile(filepath.Join("testdata", "snapshot_v2_sad.asvsnap"))
	if err != nil {
		t.Fatal(err)
	}
	const at = len(snapshotMagic) + 1 + 4 + len("fixture-v2") + 4 + 1 + 4 + 4 + 4 + 4 + 1
	body := fixture[:len(fixture)-4]
	binary.LittleEndian.PutUint64(body[at:], math.Float64bits(uniq))
	binary.LittleEndian.PutUint32(body[at+8:], census)
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// Block matching has one cost, SAD, and no uniqueness test. A snapshot
// whose retired slots select either — the older fixture, written when they
// existed, sets both — is refused with a *SnapshotError naming the field,
// which PUT answers with 400; a restored session could not run its non-key
// frames. Values that selected neither still decode.
func TestSnapshotRefusesRemovedMatchingOptions(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "snapshot_v2.asvsnap"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		buf  []byte
		want string // "" when the snapshot decodes
	}{
		{"older fixture", old, "uniqueness ratio 0.15"},
		{"uniqueness", withBMSlots(t, 0.15, 0), "uniqueness ratio 0.15"},
		{"census 1", withBMSlots(t, 0, 1), "census radius 1"},
		{"census 4", withBMSlots(t, 0, 4), "census radius 4"},
		{"negative ratio", withBMSlots(t, -0.5, 0), ""},
		{"zero slots", withBMSlots(t, 0, 0), ""},
	} {
		_, err := DecodeSnapshot(tc.buf, 0)
		var se *SnapshotError
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v, want it decoded", tc.name, err)
		case tc.want != "" && (!errors.As(err, &se) || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err=%v, want a *SnapshotError naming %q", tc.name, err, tc.want)
		}
	}

	_, ts := testServer(t, DefaultConfig(), 0)
	if code, body := putSnapshot(t, ts.URL, "fixture-v2", withBMSlots(t, 0, 4)); code != http.StatusBadRequest {
		t.Fatalf("PUT with census radius 4: %d: %s, want 400", code, body)
	}
}

// The cluster checkpoint path encodes a snapshot after every frame, so the
// encoder must stay one allocation per call: the output buffer, sized up
// front.
func TestEncodeSnapshotAllocatesOnce(t *testing.T) {
	snap := fixtureSnapshot()
	if n := testing.AllocsPerRun(20, func() { EncodeSnapshot(snap) }); n != 1 {
		t.Fatalf("EncodeSnapshot allocates %v times per call, want 1", n)
	}
}

// A session deleted while one of its frames runs stays deleted: the frame's
// checkpoint, written after the DELETE removed the spill file, must not
// bring the session back on the next lookup.
func TestDeleteDuringFrameStaysDeleted(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.SpillDir = dir
	cfg.CheckpointEvery = 1
	_, ts := testServer(t, cfg, 300*time.Millisecond)
	info := createPresetSession(t, ts.URL, CreateSessionRequest{
		Preset: "sceneflow", W: 32, H: 24, Frames: 2, PW: 1,
	})

	frameCode := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sessions/"+info.ID+"/frames", "", nil)
		if err != nil {
			frameCode <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		frameCode <- resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond) // the frame is inside the matcher now

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %d, want 204", resp.StatusCode)
	}
	if code := <-frameCode; code != http.StatusOK {
		t.Fatalf("in-flight frame: %d, want 200", code)
	}
	resp, err = http.Get(ts.URL + "/v1/sessions/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after DELETE: %d, want 404 (the session came back from its checkpoint)", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, info.ID+".asvsnap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("spill file of a deleted session: %v, want it gone", err)
	}
}
