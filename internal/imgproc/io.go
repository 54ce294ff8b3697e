package imgproc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
)

// Image and disparity-map file I/O.
//
// Two portable formats, both readable by standard tools:
//
//   - PGM (P5, 8- or 16-bit) for display images: values are clamped to
//     [0, 1] and scaled to the integer range.
//   - PFM (Pf, little-endian) for disparity maps and any signed/float
//     data, the format KITTI and Middlebury use for ground truth.

// maxReadPixels bounds the image size the readers will decode. Headers are
// attacker-controlled (or fuzzer-controlled) and the pixel buffer is
// allocated from the header alone, so an unchecked "999999999 999999999"
// header would be a multi-exabyte allocation. 2^26 pixels (64 Mpx, ~256 MB
// of float32) is far above any stereo dataset frame.
const maxReadPixels = 1 << 26

// MaxDecodePixels is the default pixel-count cap applied by ReadPGM and
// ReadPFM. Network-facing callers (the serving layer) pass a tighter,
// configurable cap through ReadPGMLimit/ReadPFMLimit.
const MaxDecodePixels = maxReadPixels

// TooLargeError reports an image whose header-declared size exceeds the
// decoder's pixel budget. It is a distinct type so serving code can map it
// to 413 Request Entity Too Large instead of a generic decode failure.
type TooLargeError struct {
	Format    string // "PGM" or "PFM"
	W, H      int    // header-declared dimensions
	MaxPixels int    // the cap that was exceeded
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("imgproc: %s image %dx%d exceeds the %d-pixel decode limit",
		e.Format, e.W, e.H, e.MaxPixels)
}

// checkReadDims validates header-supplied dimensions against maxPixels. The
// per-dimension bound keeps w*h from overflowing before the product test;
// oversize-but-plausible headers get the typed TooLargeError.
func checkReadDims(format string, w, h, maxPixels int) error {
	if maxPixels <= 0 || maxPixels > maxReadPixels {
		maxPixels = maxReadPixels
	}
	if w <= 0 || h <= 0 {
		return fmt.Errorf("imgproc: unreasonable %s dimensions %dx%d", format, w, h)
	}
	if w > maxPixels || h > maxPixels || w*h > maxPixels {
		return &TooLargeError{Format: format, W: w, H: h, MaxPixels: maxPixels}
	}
	return nil
}

// expectSeparator consumes the single whitespace byte between header and
// pixel data and rejects anything else — a non-whitespace byte there means
// the header was misparsed (e.g. a maxval with trailing garbage) and the
// pixel stream would be read out of register.
func expectSeparator(br *bufio.Reader, format string) error {
	b, err := br.ReadByte()
	if err != nil {
		return err
	}
	if b != ' ' && b != '\t' && b != '\n' && b != '\r' {
		return fmt.Errorf("imgproc: %s header not terminated by whitespace (got %q)", format, b)
	}
	return nil
}

// clamp01 pins decoded values to the documented [0, 1] range: a malformed
// file may store samples above its own maxval.
func clamp01(v float32) float32 {
	if v > 1 {
		return 1
	}
	return v
}

// WritePGM writes im as a binary 16-bit PGM, clamping pixels to [0, 1],
// in one Write.
func WritePGM(w io.Writer, im *Image) error {
	_, err := w.Write(AppendPGM(nil, im))
	return err
}

// AppendPGM appends the bytes WritePGM writes to dst and returns the
// extended slice.
func AppendPGM(dst []byte, im *Image) []byte {
	dst, out := appendHeader(dst, "P5", im, "65535", 2)
	for i, v := range im.Pix {
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		binary.BigEndian.PutUint16(out[2*i:], uint16(v*65535+0.5))
	}
	return dst
}

// WritePFM writes im as a single-channel little-endian PFM (values are
// stored verbatim, so negative "invalid" disparities survive a roundtrip)
// in one Write.
func WritePFM(w io.Writer, im *Image) error {
	_, err := w.Write(AppendPFM(nil, im))
	return err
}

// AppendPFM appends the bytes WritePFM writes to dst and returns the
// extended slice.
func AppendPFM(dst []byte, im *Image) []byte {
	// Scale -1.0 marks little-endian per the PFM spec.
	dst, out := appendHeader(dst, "Pf", im, "-1.0", 4)
	// PFM stores rows bottom-up.
	for y := im.H - 1; y >= 0; y-- {
		for _, v := range im.Pix[y*im.W:][:im.W] {
			binary.LittleEndian.PutUint32(out, math.Float32bits(v))
			out = out[4:]
		}
	}
	return dst
}

// appendHeader appends the "magic\nW H\nlast\n" header PGM and PFM share,
// then room for im's samples at size bytes each. It returns the extended
// slice and that room.
func appendHeader(dst []byte, magic string, im *Image, last string, size int) (all, samples []byte) {
	dst = append(dst, magic...)
	dst = append(dst, '\n')
	dst = strconv.AppendInt(dst, int64(im.W), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(im.H), 10)
	dst = append(dst, '\n')
	dst = append(dst, last...)
	dst = append(dst, '\n')
	n := len(dst)
	dst = slices.Grow(dst, size*len(im.Pix))[:n+size*len(im.Pix)]
	return dst, dst[n:]
}

// decodeScratch holds the byte buffers the readers take pixel data into, so
// that a served frame's two uploads do not allocate them afresh.
var decodeScratch FreeList[[]byte]

// readPixels reads n bytes of pixel data from br into a buffer off
// decodeScratch and hands it to decode, which must not keep it.
func readPixels(br *bufio.Reader, format string, n int, decode func([]byte)) error {
	bp := decodeScratch.Get()
	defer decodeScratch.Put(bp)
	*bp = Grow(*bp, n)
	if _, err := io.ReadFull(br, *bp); err != nil {
		return fmt.Errorf("imgproc: reading %s pixels: %w", format, err)
	}
	decode(*bp)
	return nil
}

// ReadPGM reads a binary 8- or 16-bit PGM into an image scaled to [0, 1],
// with the default MaxDecodePixels size cap.
func ReadPGM(r io.Reader) (*Image, error) { return ReadPGMLimit(r, MaxDecodePixels) }

// ReadPGMLimit is ReadPGM with a caller-supplied pixel-count cap
// (maxPixels <= 0 selects the default). Headers declaring more than
// maxPixels pixels fail with a *TooLargeError before any pixel buffer is
// allocated, so a hostile upload cannot force a large allocation.
func ReadPGMLimit(r io.Reader, maxPixels int) (*Image, error) {
	br := bufio.NewReader(r)
	var magic string
	if _, err := fmt.Fscan(br, &magic); err != nil {
		return nil, fmt.Errorf("imgproc: reading PGM magic: %w", err)
	}
	if magic != "P5" {
		return nil, fmt.Errorf("imgproc: not a binary PGM (magic %q)", magic)
	}
	var w, h, maxv int
	if _, err := fmt.Fscan(br, &w, &h, &maxv); err != nil {
		return nil, fmt.Errorf("imgproc: reading PGM header: %w", err)
	}
	if maxv <= 0 || maxv > 65535 {
		return nil, fmt.Errorf("imgproc: bad PGM header %dx%d max %d", w, h, maxv)
	}
	if err := checkReadDims("PGM", w, h, maxPixels); err != nil {
		return nil, err
	}
	if err := expectSeparator(br, "PGM"); err != nil {
		return nil, err
	}
	im := NewImage(w, h)
	scale := 1 / float32(maxv)
	depth := 1 // bytes per sample
	if maxv >= 256 {
		depth = 2
	}
	err := readPixels(br, "PGM", depth*w*h, func(buf []byte) {
		if depth == 1 {
			for i, b := range buf {
				im.Pix[i] = clamp01(float32(b) * scale)
			}
			return
		}
		for i := range im.Pix {
			im.Pix[i] = clamp01(float32(binary.BigEndian.Uint16(buf[2*i:])) * scale)
		}
	})
	if err != nil {
		return nil, err
	}
	return im, nil
}

// ReadPFM reads a single-channel PFM, with the default MaxDecodePixels size
// cap.
func ReadPFM(r io.Reader) (*Image, error) { return ReadPFMLimit(r, MaxDecodePixels) }

// ReadPFMLimit is ReadPFM with a caller-supplied pixel-count cap
// (maxPixels <= 0 selects the default); oversize headers fail with a
// *TooLargeError before allocation.
func ReadPFMLimit(r io.Reader, maxPixels int) (*Image, error) {
	br := bufio.NewReader(r)
	var magic string
	if _, err := fmt.Fscan(br, &magic); err != nil {
		return nil, fmt.Errorf("imgproc: reading PFM magic: %w", err)
	}
	if magic != "Pf" {
		return nil, fmt.Errorf("imgproc: not a grayscale PFM (magic %q)", magic)
	}
	var w, h int
	var scale float64
	if _, err := fmt.Fscan(br, &w, &h, &scale); err != nil {
		return nil, fmt.Errorf("imgproc: reading PFM header: %w", err)
	}
	if scale == 0 {
		return nil, fmt.Errorf("imgproc: bad PFM header %dx%d scale %v", w, h, scale)
	}
	if err := checkReadDims("PFM", w, h, maxPixels); err != nil {
		return nil, err
	}
	if err := expectSeparator(br, "PFM"); err != nil {
		return nil, err
	}
	im := NewImage(w, h)
	err := readPixels(br, "PFM", 4*w*h, func(buf []byte) {
		// Rows are stored bottom-up; a positive scale marks big-endian.
		for y := h - 1; y >= 0; y-- {
			row, src := im.Pix[y*w:][:w], buf[:4*w]
			buf = buf[4*w:]
			if scale > 0 {
				for x := range row {
					row[x] = math.Float32frombits(binary.BigEndian.Uint32(src[4*x:]))
				}
			} else {
				for x := range row {
					row[x] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*x:]))
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return im, nil
}

// SavePGM writes the image to path as 16-bit PGM.
func SavePGM(path string, im *Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	//asvlint:ignore droppederr backstop only; the success path returns f.Close() below
	defer f.Close()
	if err := WritePGM(f, im); err != nil {
		return err
	}
	return f.Close()
}

// LoadPGM reads a PGM from path.
func LoadPGM(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//asvlint:ignore droppederr read-only file; decoded data is already validated
	defer f.Close()
	return ReadPGM(f)
}

// SavePFM writes the image to path as PFM.
func SavePFM(path string, im *Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	//asvlint:ignore droppederr backstop only; the success path returns f.Close() below
	defer f.Close()
	if err := WritePFM(f, im); err != nil {
		return err
	}
	return f.Close()
}

// LoadPFM reads a PFM from path.
func LoadPFM(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//asvlint:ignore droppederr read-only file; decoded data is already validated
	defer f.Close()
	return ReadPFM(f)
}
