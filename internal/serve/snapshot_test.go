package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/imgproc"
	"asv/internal/perception"
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

	// Semantically unacceptable: the stream is fine but exceeds the target
	// server's preset-length cap → 422, distinct from the 400 class.
	strict := DefaultConfig()
	strict.MaxPresetFrames = 2
	_, tsStrict := testServer(t, strict, 0)
	if code, body := putSnapshot(t, tsStrict.URL, info.ID, snap); code != http.StatusUnprocessableEntity {
		t.Fatalf("PUT over preset cap: %d: %s, want 422", code, body)
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
		ID: "seed1", PW: 3,
		FlowScale: 2, RefineR: 2,
		BM:     DefaultConfig().Pipeline.BM,
		Flow:   DefaultConfig().Pipeline.Flow,
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
		ID: "seed2", PW: 1,
		BM:   DefaultConfig().Pipeline.BM,
		Flow: DefaultConfig().Pipeline.Flow,
	})
	calibrated := EncodeSnapshot(&SessionSnapshot{
		ID: "seed3", PW: 2,
		BM:    DefaultConfig().Pipeline.BM,
		Flow:  DefaultConfig().Pipeline.Flow,
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
		ID: "v2-rt", PW: 2,
		BM:    DefaultConfig().Pipeline.BM,
		Flow:  DefaultConfig().Pipeline.Flow,
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
