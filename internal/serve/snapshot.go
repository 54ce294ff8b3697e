package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/flow"
	"asv/internal/imgproc"
	"asv/internal/perception"
	"asv/internal/stereo"
)

// Session snapshot wire format (version 2).
//
// A snapshot is the complete, self-contained description of one serving
// session: its ISM pipeline options (including BM.Fixed, which selects
// nothing now but keeps its byte so the format does not change), its
// counters, its pinned geometry, the core.State images, the optional camera
// calibration and — for preset sessions — the scene recipe plus replay
// cursor (the synthetic frames are regenerated on restore, not shipped).
// Restoring a snapshot into any server running the same build resumes the
// stream bit-identically, which is what the cluster layer's shard
// migration, crash recovery and eviction-to-disk are built on (DESIGN.md
// §10).
//
// Layout, all integers little-endian:
//
//	[7]byte  magic "ASVSNAP"
//	uint8    version (2)
//	...      version-2 payload (see encode below)
//	uint32   IEEE CRC32 of everything before it (magic included)
//
// The format is strictly versioned: a decoder refuses unknown versions and
// any structural damage (truncation, bad lengths, oversized images,
// trailing bytes, CRC mismatch) with a *SnapshotError — never a panic —
// because snapshot bytes cross trust boundaries (disk, peer shards).
//
// Version history: v1 had no calibration block; v2 appends one (presence
// byte + 11 float64 fields) after the preset block. Decoders refuse other
// versions outright — a v1 snapshot cannot distinguish "uncalibrated" from
// "calibration lost", so it is rejected rather than silently upgraded
// (testdata/snapshot_v1.asvsnap pins that behavior).

// SnapshotVersion is the wire-format version this build writes.
const SnapshotVersion = 2

const snapshotMagic = "ASVSNAP"

// snapMaxString caps decoded string fields (ids, preset names).
const snapMaxString = 256

// SnapshotError is the typed failure for corrupt or unacceptable snapshot
// bytes. Decoding never panics: any malformed input yields one of these.
type SnapshotError struct{ msg string }

func (e *SnapshotError) Error() string { return "snapshot: " + e.msg }

func snapErrf(format string, args ...any) *SnapshotError {
	return &SnapshotError{msg: fmt.Sprintf(format, args...)}
}

// SessionSnapshot is the decoded form of a session snapshot.
type SessionSnapshot struct {
	ID          string
	PW          int
	Postprocess bool

	// Pipeline options that affect the stream's numerical results. A
	// restored session must recompute exactly what the source would have,
	// so the snapshot carries them instead of trusting the destination
	// server's template.
	FlowScale int
	RefineR   int
	BM        stereo.BMOptions
	Flow      flow.Options
	Adaptive  *core.AdaptiveConfig

	// Frames and KeyFrames mirror the session's completed-frame counters.
	Frames, KeyFrames int64
	// W, H is the pinned frame geometry (0,0 before the first frame).
	W, H int

	// State is the core pipeline's temporal state (frame counters plus the
	// previous frame pair and disparity; images nil before the first key).
	State core.State

	// Preset, when non-nil, records a server-side synthetic source: the
	// scene recipe and the replay cursor. The frames themselves are
	// regenerated deterministically on restore.
	Preset *PresetSnapshot

	// Calib, when non-nil, is the session's camera model. It must migrate
	// with the session: a restored session keeps rectifying uploads and
	// serving depth/cloud formats exactly as the source shard did.
	Calib *perception.Calibration
}

// PresetSnapshot is the serialized form of a preset frame source.
type PresetSnapshot struct {
	Name  string
	Scene dataset.SceneConfig
	Next  int64
}

// --- encoding -----------------------------------------------------------

type snapEncoder struct{ buf []byte }

func (e *snapEncoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *snapEncoder) bool(v bool)  { e.u8(map[bool]uint8{false: 0, true: 1}[v]) }
func (e *snapEncoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *snapEncoder) i64(v int64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v)) }
func (e *snapEncoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *snapEncoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *snapEncoder) image(im *imgproc.Image) {
	if im == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.u32(uint32(im.W))
	e.u32(uint32(im.H))
	for _, px := range im.Pix {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, math.Float32bits(px))
	}
}

// EncodeSnapshot serializes snap into the versioned binary format.
func EncodeSnapshot(snap *SessionSnapshot) []byte {
	e := &snapEncoder{buf: make([]byte, 0, snapshotSizeHint(snap))}
	e.buf = append(e.buf, snapshotMagic...)
	e.u8(SnapshotVersion)

	e.str(snap.ID)
	e.u32(uint32(snap.PW))
	e.bool(snap.Postprocess)

	e.u32(uint32(snap.FlowScale))
	e.u32(uint32(snap.RefineR))
	e.u32(uint32(snap.BM.BlockR))
	e.u32(uint32(snap.BM.MaxDisp))
	e.bool(snap.BM.Subpixel)
	e.f64(snap.BM.UniqRatio)
	e.u32(uint32(snap.BM.Census))
	e.bool(snap.BM.Fixed)
	e.u32(uint32(snap.Flow.Levels))
	e.f64(snap.Flow.PyrSigma)
	e.f64(snap.Flow.PolySigma)
	e.u32(uint32(snap.Flow.PolyR))
	e.f64(snap.Flow.WinSigma)
	e.u32(uint32(snap.Flow.Iters))
	if snap.Adaptive != nil {
		e.u8(1)
		e.u32(uint32(snap.Adaptive.MaxWindow))
		e.f64(snap.Adaptive.MotionThresholdPx)
	} else {
		e.u8(0)
	}

	e.i64(snap.Frames)
	e.i64(snap.KeyFrames)
	e.u32(uint32(snap.W))
	e.u32(uint32(snap.H))

	e.u32(uint32(snap.State.FrameIdx))
	e.u32(uint32(snap.State.SinceKey))
	e.bool(snap.State.NeedKey)
	e.image(snap.State.PrevLeft)
	e.image(snap.State.PrevRight)
	e.image(snap.State.PrevDisp)

	if snap.Preset != nil {
		e.u8(1)
		e.str(snap.Preset.Name)
		sc := snap.Preset.Scene
		e.u32(uint32(sc.W))
		e.u32(uint32(sc.H))
		e.u32(uint32(sc.FrameCount))
		e.u32(uint32(sc.Layers))
		e.f64(sc.MinDisp)
		e.f64(sc.MaxDisp)
		e.f64(sc.MaxVel)
		e.f64(sc.MaxDispVel)
		e.bool(sc.Ground)
		e.f64(sc.Noise)
		e.f64(sc.RightGain)
		e.i64(sc.Seed)
		e.i64(snap.Preset.Next)
	} else {
		e.u8(0)
	}

	if snap.Calib != nil {
		e.u8(1)
		c := snap.Calib
		e.f64(c.Fx)
		e.f64(c.Fy)
		e.f64(c.Cx)
		e.f64(c.Cy)
		e.f64(c.BaselineM)
		for _, a := range c.LeftRPY {
			e.f64(a)
		}
		for _, a := range c.RightRPY {
			e.f64(a)
		}
	} else {
		e.u8(0)
	}

	e.u32(crc32.ChecksumIEEE(e.buf))
	return e.buf
}

func snapshotSizeHint(snap *SessionSnapshot) int {
	n := 512
	for _, im := range []*imgproc.Image{snap.State.PrevLeft, snap.State.PrevRight, snap.State.PrevDisp} {
		if im != nil {
			n += 9 + 4*len(im.Pix)
		}
	}
	return n
}

// --- decoding -----------------------------------------------------------

type snapDecoder struct {
	buf       []byte
	pos       int
	maxPixels int
}

func (d *snapDecoder) need(n int, what string) error {
	if d.pos+n > len(d.buf) {
		return snapErrf("truncated reading %s (need %d bytes at offset %d of %d)", what, n, d.pos, len(d.buf))
	}
	return nil
}

func (d *snapDecoder) u8(what string) (uint8, error) {
	if err := d.need(1, what); err != nil {
		return 0, err
	}
	v := d.buf[d.pos]
	d.pos++
	return v, nil
}

func (d *snapDecoder) bool(what string) (bool, error) {
	v, err := d.u8(what)
	if err != nil {
		return false, err
	}
	if v > 1 {
		return false, snapErrf("bad boolean %d for %s", v, what)
	}
	return v == 1, nil
}

func (d *snapDecoder) u32(what string) (uint32, error) {
	if err := d.need(4, what); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v, nil
}

// count decodes a u32 that must fit in [0, maxInt] for counting uses.
func (d *snapDecoder) count(what string, max int) (int, error) {
	v, err := d.u32(what)
	if err != nil {
		return 0, err
	}
	if int64(v) > int64(max) {
		return 0, snapErrf("%s %d exceeds the cap %d", what, v, max)
	}
	return int(v), nil
}

func (d *snapDecoder) i64(what string) (int64, error) {
	if err := d.need(8, what); err != nil {
		return 0, err
	}
	v := int64(binary.LittleEndian.Uint64(d.buf[d.pos:]))
	d.pos += 8
	return v, nil
}

func (d *snapDecoder) f64(what string) (float64, error) {
	if err := d.need(8, what); err != nil {
		return 0, err
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.pos:]))
	d.pos += 8
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, snapErrf("non-finite value for %s", what)
	}
	return v, nil
}

func (d *snapDecoder) str(what string) (string, error) {
	n, err := d.count(what+" length", snapMaxString)
	if err != nil {
		return "", err
	}
	if err := d.need(n, what); err != nil {
		return "", err
	}
	s := string(d.buf[d.pos : d.pos+n])
	d.pos += n
	return s, nil
}

func (d *snapDecoder) image(what string) (*imgproc.Image, error) {
	present, err := d.u8(what + " presence")
	if err != nil {
		return nil, err
	}
	if present == 0 {
		return nil, nil
	}
	if present != 1 {
		return nil, snapErrf("bad presence byte %d for %s", present, what)
	}
	w, err := d.count(what+" width", 1<<15)
	if err != nil {
		return nil, err
	}
	h, err := d.count(what+" height", 1<<15)
	if err != nil {
		return nil, err
	}
	if w < 1 || h < 1 {
		return nil, snapErrf("%s size %dx%d is empty", what, w, h)
	}
	if w*h > d.maxPixels {
		return nil, snapErrf("%s size %dx%d exceeds the %d-pixel cap", what, w, h, d.maxPixels)
	}
	if err := d.need(4*w*h, what+" pixels"); err != nil {
		return nil, err
	}
	im := imgproc.NewImage(w, h)
	for i := range im.Pix {
		im.Pix[i] = math.Float32frombits(binary.LittleEndian.Uint32(d.buf[d.pos+4*i:]))
	}
	d.pos += 4 * w * h
	return im, nil
}

// DecodeSnapshot parses and structurally validates snapshot bytes. Images
// larger than maxPixels (per image) are refused, which bounds the memory a
// hostile snapshot can make the decoder allocate. Semantic validation
// against a particular server's limits happens at restore time.
func DecodeSnapshot(data []byte, maxPixels int) (*SessionSnapshot, error) {
	if maxPixels < 1 {
		maxPixels = imgproc.MaxDecodePixels
	}
	if len(data) < len(snapshotMagic)+1+4 {
		return nil, snapErrf("%d bytes is shorter than any snapshot", len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, snapErrf("bad magic %q", data[:len(snapshotMagic)])
	}
	if v := data[len(snapshotMagic)]; v != SnapshotVersion {
		return nil, snapErrf("unsupported version %d (this build reads %d)", v, SnapshotVersion)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, snapErrf("checksum mismatch (computed %08x, recorded %08x)", got, want)
	}

	d := &snapDecoder{buf: body, pos: len(snapshotMagic) + 1, maxPixels: maxPixels}
	snap := &SessionSnapshot{}
	var err error
	if snap.ID, err = d.str("session id"); err != nil {
		return nil, err
	}
	if !validSessionID(snap.ID) {
		return nil, snapErrf("invalid session id %q", snap.ID)
	}
	if snap.PW, err = d.count("pw", 64); err != nil {
		return nil, err
	}
	if snap.PW < 1 {
		return nil, snapErrf("pw %d out of range", snap.PW)
	}
	if snap.Postprocess, err = d.bool("postprocess"); err != nil {
		return nil, err
	}

	if snap.FlowScale, err = d.count("flow scale", 64); err != nil {
		return nil, err
	}
	if snap.RefineR, err = d.count("refine radius", 256); err != nil {
		return nil, err
	}
	if snap.BM.BlockR, err = d.count("bm block radius", 256); err != nil {
		return nil, err
	}
	if snap.BM.MaxDisp, err = d.count("bm max disparity", 1<<12); err != nil {
		return nil, err
	}
	if snap.BM.Subpixel, err = d.bool("bm subpixel"); err != nil {
		return nil, err
	}
	if snap.BM.UniqRatio, err = d.f64("bm uniqueness ratio"); err != nil {
		return nil, err
	}
	if snap.BM.Census, err = d.count("bm census radius", 256); err != nil {
		return nil, err
	}
	if snap.BM.Fixed, err = d.bool("bm fixed-point"); err != nil {
		return nil, err
	}
	if snap.Flow.Levels, err = d.count("flow levels", 64); err != nil {
		return nil, err
	}
	if snap.Flow.PyrSigma, err = d.f64("flow pyramid sigma"); err != nil {
		return nil, err
	}
	if snap.Flow.PolySigma, err = d.f64("flow poly sigma"); err != nil {
		return nil, err
	}
	if snap.Flow.PolyR, err = d.count("flow poly radius", 256); err != nil {
		return nil, err
	}
	if snap.Flow.WinSigma, err = d.f64("flow window sigma"); err != nil {
		return nil, err
	}
	if snap.Flow.Iters, err = d.count("flow iterations", 1024); err != nil {
		return nil, err
	}
	hasAdaptive, err := d.bool("adaptive presence")
	if err != nil {
		return nil, err
	}
	if hasAdaptive {
		var a core.AdaptiveConfig
		if a.MaxWindow, err = d.count("adaptive max window", 1<<10); err != nil {
			return nil, err
		}
		if a.MotionThresholdPx, err = d.f64("adaptive motion threshold"); err != nil {
			return nil, err
		}
		if a.MaxWindow < 1 || a.MotionThresholdPx <= 0 {
			return nil, snapErrf("adaptive config (window %d, threshold %g) out of range", a.MaxWindow, a.MotionThresholdPx)
		}
		snap.Adaptive = &a
	}

	if snap.Frames, err = d.i64("frame counter"); err != nil {
		return nil, err
	}
	if snap.KeyFrames, err = d.i64("key-frame counter"); err != nil {
		return nil, err
	}
	if snap.Frames < 0 || snap.KeyFrames < 0 || snap.KeyFrames > snap.Frames {
		return nil, snapErrf("counters (%d frames, %d key) are inconsistent", snap.Frames, snap.KeyFrames)
	}
	if snap.W, err = d.count("geometry width", 1<<15); err != nil {
		return nil, err
	}
	if snap.H, err = d.count("geometry height", 1<<15); err != nil {
		return nil, err
	}

	if snap.State.FrameIdx, err = d.count("state frame index", 1<<31-1); err != nil {
		return nil, err
	}
	if snap.State.SinceKey, err = d.count("state since-key", 1<<31-1); err != nil {
		return nil, err
	}
	if snap.State.NeedKey, err = d.bool("state need-key"); err != nil {
		return nil, err
	}
	if snap.State.PrevLeft, err = d.image("previous left"); err != nil {
		return nil, err
	}
	if snap.State.PrevRight, err = d.image("previous right"); err != nil {
		return nil, err
	}
	if snap.State.PrevDisp, err = d.image("previous disparity"); err != nil {
		return nil, err
	}

	hasPreset, err := d.bool("preset presence")
	if err != nil {
		return nil, err
	}
	if hasPreset {
		ps := &PresetSnapshot{}
		if ps.Name, err = d.str("preset name"); err != nil {
			return nil, err
		}
		if ps.Scene.W, err = d.count("scene width", 1<<15); err != nil {
			return nil, err
		}
		if ps.Scene.H, err = d.count("scene height", 1<<15); err != nil {
			return nil, err
		}
		if ps.Scene.FrameCount, err = d.count("scene frame count", 1<<20); err != nil {
			return nil, err
		}
		if ps.Scene.Layers, err = d.count("scene layers", 1<<10); err != nil {
			return nil, err
		}
		if ps.Scene.MinDisp, err = d.f64("scene min disparity"); err != nil {
			return nil, err
		}
		if ps.Scene.MaxDisp, err = d.f64("scene max disparity"); err != nil {
			return nil, err
		}
		if ps.Scene.MaxVel, err = d.f64("scene max velocity"); err != nil {
			return nil, err
		}
		if ps.Scene.MaxDispVel, err = d.f64("scene max disparity velocity"); err != nil {
			return nil, err
		}
		if ps.Scene.Ground, err = d.bool("scene ground plane"); err != nil {
			return nil, err
		}
		if ps.Scene.Noise, err = d.f64("scene noise"); err != nil {
			return nil, err
		}
		if ps.Scene.RightGain, err = d.f64("scene right gain"); err != nil {
			return nil, err
		}
		if ps.Scene.Seed, err = d.i64("scene seed"); err != nil {
			return nil, err
		}
		if ps.Next, err = d.i64("preset cursor"); err != nil {
			return nil, err
		}
		if ps.Next < 0 {
			return nil, snapErrf("negative preset cursor %d", ps.Next)
		}
		if ps.Scene.W < 16 || ps.Scene.H < 16 || ps.Scene.FrameCount < 1 ||
			ps.Scene.MinDisp < 0 || ps.Scene.MaxDisp < ps.Scene.MinDisp {
			return nil, snapErrf("preset scene config out of range (%dx%d, %d frames, disparity [%g, %g])",
				ps.Scene.W, ps.Scene.H, ps.Scene.FrameCount, ps.Scene.MinDisp, ps.Scene.MaxDisp)
		}
		snap.Preset = ps
	}

	hasCalib, err := d.bool("calibration presence")
	if err != nil {
		return nil, err
	}
	if hasCalib {
		c := &perception.Calibration{}
		if c.Fx, err = d.f64("calibration fx"); err != nil {
			return nil, err
		}
		if c.Fy, err = d.f64("calibration fy"); err != nil {
			return nil, err
		}
		if c.Cx, err = d.f64("calibration cx"); err != nil {
			return nil, err
		}
		if c.Cy, err = d.f64("calibration cy"); err != nil {
			return nil, err
		}
		if c.BaselineM, err = d.f64("calibration baseline"); err != nil {
			return nil, err
		}
		for i := range c.LeftRPY {
			if c.LeftRPY[i], err = d.f64("calibration left rpy"); err != nil {
				return nil, err
			}
		}
		for i := range c.RightRPY {
			if c.RightRPY[i], err = d.f64("calibration right rpy"); err != nil {
				return nil, err
			}
		}
		if err := c.Validate(); err != nil {
			return nil, snapErrf("%v", err)
		}
		snap.Calib = c
	}

	if d.pos != len(body) {
		return nil, snapErrf("%d trailing bytes after the payload", len(body)-d.pos)
	}
	return snap, nil
}
