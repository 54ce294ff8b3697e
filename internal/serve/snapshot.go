package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/imgproc"
	"asv/internal/perception"
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
//	...      version-2 payload (see walk below)
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
// (testdata/snapshot_v1.asvsnap pins that behavior). The v2 bytes
// themselves are pinned by testdata/snapshot_v2.asvsnap, which must decode
// and re-encode unchanged.

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
	ID string

	// Pipeline is the session's ISM configuration: every option that affects
	// the stream's numerical results, so a restored session recomputes
	// exactly what the source would have instead of trusting the destination
	// server's template. ME is not serialized; restore takes it from the
	// template.
	Pipeline core.Config

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

// EncodeSnapshot serializes snap into the versioned binary format.
func EncodeSnapshot(snap *SessionSnapshot) []byte {
	n := 512
	for _, im := range []*imgproc.Image{snap.State.PrevLeft, snap.State.PrevRight, snap.State.PrevDisp} {
		if im != nil {
			n += 9 + 4*len(im.Pix)
		}
	}
	c := snapCodec{out: append(append(make([]byte, 0, n), snapshotMagic...), SnapshotVersion)}
	c.walk(snap)
	return binary.LittleEndian.AppendUint32(c.out, crc32.ChecksumIEEE(c.out))
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
	c := snapCodec{decoding: true, in: body, pos: len(snapshotMagic) + 1, maxPixels: maxPixels}
	snap := &SessionSnapshot{}
	c.walk(snap)
	if c.err == nil && c.pos != len(body) {
		c.fail("%d trailing bytes after the payload", len(body)-c.pos)
	}
	if c.err != nil {
		return nil, c.err
	}
	return snap, nil
}

// walk is the version-2 payload: every field in wire order, each with its
// decode-time check. Encoding reads the fields of snap; decoding fills
// them, and the checks only run then.
func (c *snapCodec) walk(snap *SessionSnapshot) {
	c.str(&snap.ID, "session id")
	if c.decoding && !validSessionID(snap.ID) {
		c.fail("invalid session id %q", snap.ID)
	}
	p := &snap.Pipeline
	c.count(&p.PW, "pw", 64)
	if c.decoding && p.PW < 1 {
		c.fail("pw %d out of range", p.PW)
	}
	c.flag(&p.Postprocess, "postprocess")
	c.count(&p.FlowScale, "flow scale", 64)
	c.count(&p.RefineR, "refine radius", 256)
	c.count(&p.BM.BlockR, "bm block radius", 256)
	c.count(&p.BM.MaxDisp, "bm max disparity", 1<<12)
	c.flag(&p.BM.Subpixel, "bm subpixel")
	// Two slots of options block matching no longer has, kept so the
	// format does not change: the uniqueness ratio and the census radius.
	// Encoding writes 0 to both; a positive value selected a cost or a test
	// the kernels cannot run, and is refused.
	var uniq float64
	var censusR int
	c.f64(&uniq, "bm uniqueness ratio")
	c.count(&censusR, "bm census radius", 256)
	if uniq > 0 {
		c.fail("bm uniqueness ratio %g: the uniqueness test was removed", uniq)
	}
	if censusR > 0 {
		c.fail("bm census radius %d: census block matching was removed", censusR)
	}
	c.flag(&p.BM.Fixed, "bm fixed-point") // selects nothing now; the byte keeps the format
	c.count(&p.Flow.Levels, "flow levels", 64)
	c.f64(&p.Flow.PyrSigma, "flow pyramid sigma")
	c.f64(&p.Flow.PolySigma, "flow poly sigma")
	c.count(&p.Flow.PolyR, "flow poly radius", 256)
	c.f64(&p.Flow.WinSigma, "flow window sigma")
	c.count(&p.Flow.Iters, "flow iterations", 1024)
	if c.present(p.Adaptive != nil, "adaptive presence") {
		if c.decoding {
			p.Adaptive = &core.AdaptiveConfig{}
		}
		a := p.Adaptive
		c.count(&a.MaxWindow, "adaptive max window", 1<<10)
		c.f64(&a.MotionThresholdPx, "adaptive motion threshold")
		if c.decoding && (a.MaxWindow < 1 || a.MotionThresholdPx <= 0) {
			c.fail("adaptive config (window %d, threshold %g) out of range", a.MaxWindow, a.MotionThresholdPx)
		}
	}

	c.i64(&snap.Frames, "frame counter")
	c.i64(&snap.KeyFrames, "key-frame counter")
	if c.decoding && (snap.Frames < 0 || snap.KeyFrames < 0 || snap.KeyFrames > snap.Frames) {
		c.fail("counters (%d frames, %d key) are inconsistent", snap.Frames, snap.KeyFrames)
	}
	c.count(&snap.W, "geometry width", 1<<15)
	c.count(&snap.H, "geometry height", 1<<15)

	st := &snap.State
	c.count(&st.FrameIdx, "state frame index", 1<<31-1)
	c.count(&st.SinceKey, "state since-key", 1<<31-1)
	c.flag(&st.NeedKey, "state need-key")
	c.image(&st.PrevLeft, "previous left")
	c.image(&st.PrevRight, "previous right")
	c.image(&st.PrevDisp, "previous disparity")

	if c.present(snap.Preset != nil, "preset presence") {
		if c.decoding {
			snap.Preset = &PresetSnapshot{}
		}
		ps, sc := snap.Preset, &snap.Preset.Scene
		c.str(&ps.Name, "preset name")
		c.count(&sc.W, "scene width", 1<<15)
		c.count(&sc.H, "scene height", 1<<15)
		c.count(&sc.FrameCount, "scene frame count", 1<<20)
		c.count(&sc.Layers, "scene layers", 1<<10)
		c.f64(&sc.MinDisp, "scene min disparity")
		c.f64(&sc.MaxDisp, "scene max disparity")
		c.f64(&sc.MaxVel, "scene max velocity")
		c.f64(&sc.MaxDispVel, "scene max disparity velocity")
		c.flag(&sc.Ground, "scene ground plane")
		c.f64(&sc.Noise, "scene noise")
		c.f64(&sc.RightGain, "scene right gain")
		c.i64(&sc.Seed, "scene seed")
		c.i64(&ps.Next, "preset cursor")
		if c.decoding && ps.Next < 0 {
			c.fail("negative preset cursor %d", ps.Next)
		}
		if c.decoding && (sc.W < 16 || sc.H < 16 || sc.FrameCount < 1 || sc.MinDisp < 0 || sc.MaxDisp < sc.MinDisp) {
			c.fail("preset scene config out of range (%dx%d, %d frames, disparity [%g, %g])",
				sc.W, sc.H, sc.FrameCount, sc.MinDisp, sc.MaxDisp)
		}
	}

	if c.present(snap.Calib != nil, "calibration presence") {
		if c.decoding {
			snap.Calib = &perception.Calibration{}
		}
		cal := snap.Calib
		c.f64(&cal.Fx, "calibration fx")
		c.f64(&cal.Fy, "calibration fy")
		c.f64(&cal.Cx, "calibration cx")
		c.f64(&cal.Cy, "calibration cy")
		c.f64(&cal.BaselineM, "calibration baseline")
		for i := range cal.LeftRPY {
			c.f64(&cal.LeftRPY[i], "calibration left rpy")
		}
		for i := range cal.RightRPY {
			c.f64(&cal.RightRPY[i], "calibration right rpy")
		}
		if c.decoding && c.err == nil {
			if err := cal.Validate(); err != nil {
				c.fail("%v", err)
			}
		}
	}
}

// snapCodec is one direction of the codec. Encoding appends each field to
// out. Decoding reads each field from in at pos and validates it; the first
// failure is kept in err and turns every later step into a no-op, so walk
// needs no error check between fields.
type snapCodec struct {
	decoding  bool
	out       []byte
	in        []byte
	pos       int
	maxPixels int
	err       *SnapshotError
}

// fail records the first decode failure.
func (c *snapCodec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = snapErrf(format, args...)
	}
}

// next consumes n input bytes, or returns nil (recording a truncation) when
// fewer remain or an earlier step failed.
func (c *snapCodec) next(n int, what string) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.in)-c.pos {
		c.fail("truncated reading %s (need %d bytes at offset %d of %d)", what, n, c.pos, len(c.in))
		return nil
	}
	b := c.in[c.pos : c.pos+n]
	c.pos += n
	return b
}

func (c *snapCodec) u64(v *uint64, what string) {
	if !c.decoding {
		c.out = binary.LittleEndian.AppendUint64(c.out, *v)
	} else if b := c.next(8, what); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

// flag is a boolean byte: 0 or 1, anything else is damage.
func (c *snapCodec) flag(v *bool, what string) {
	if !c.decoding {
		c.out = append(c.out, b2u8(*v))
	} else if b := c.next(1, what); b != nil {
		if b[0] > 1 {
			c.fail("bad boolean %d for %s", b[0], what)
		}
		*v = b[0] == 1
	}
}

func b2u8(v bool) uint8 {
	if v {
		return 1
	}
	return 0
}

// present is an optional block's presence byte: it writes has, or reads
// whether the block follows.
func (c *snapCodec) present(has bool, what string) bool {
	c.flag(&has, what)
	return has && c.err == nil
}

// count is a u32 that must not exceed max.
func (c *snapCodec) count(v *int, what string, max int) {
	if !c.decoding {
		c.out = binary.LittleEndian.AppendUint32(c.out, uint32(*v))
	} else if b := c.next(4, what); b != nil {
		u := binary.LittleEndian.Uint32(b)
		if int64(u) > int64(max) {
			c.fail("%s %d exceeds the cap %d", what, u, max)
		}
		*v = int(u)
	}
}

func (c *snapCodec) i64(v *int64, what string) {
	u := uint64(*v)
	c.u64(&u, what)
	if c.decoding {
		*v = int64(u)
	}
}

// f64 is an IEEE float64 that must be finite.
func (c *snapCodec) f64(v *float64, what string) {
	u := math.Float64bits(*v)
	c.u64(&u, what)
	if c.decoding && c.err == nil {
		*v = math.Float64frombits(u)
		if math.IsNaN(*v) || math.IsInf(*v, 0) {
			c.fail("non-finite value for %s", what)
		}
	}
}

// str is a length-prefixed string of at most snapMaxString bytes.
func (c *snapCodec) str(v *string, what string) {
	n := len(*v)
	c.count(&n, what, snapMaxString)
	if !c.decoding {
		c.out = append(c.out, *v...)
	} else if b := c.next(n, what); b != nil {
		*v = string(b)
	}
}

// image is a presence byte and, when present, u32 width and height and the
// float32 pixels. A decoded image must be non-empty and within maxPixels,
// which is checked before its buffer is allocated.
func (c *snapCodec) image(v **imgproc.Image, what string) {
	if !c.present(*v != nil, what) {
		return
	}
	var w, h int
	if !c.decoding {
		w, h = (*v).W, (*v).H
	}
	c.count(&w, what, 1<<15)
	c.count(&h, what, 1<<15)
	if !c.decoding {
		// A local slice keeps the write barrier of c.out out of the loop.
		out := c.out
		for _, px := range (*v).Pix {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(px))
		}
		c.out = out
		return
	}
	if c.err == nil && (w < 1 || h < 1) {
		c.fail("%s size %dx%d is empty", what, w, h)
	}
	if c.err == nil && w*h > c.maxPixels {
		c.fail("%s size %dx%d exceeds the %d-pixel cap", what, w, h, c.maxPixels)
	}
	b := c.next(4*w*h, what)
	if b == nil {
		return
	}
	im := imgproc.NewImage(w, h)
	for i := range im.Pix {
		im.Pix[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	*v = im
}
