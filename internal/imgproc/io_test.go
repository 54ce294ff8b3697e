package imgproc

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestPGMRoundTrip16Bit(t *testing.T) {
	im := randImage(1, 13, 9)
	var buf bytes.Buffer
	if err := WritePGM(&buf, im); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 13 || got.H != 9 {
		t.Fatalf("size %dx%d", got.W, got.H)
	}
	// 16-bit quantization: error bounded by 1/65535.
	if d := maxAbsDiff(im, got); d > 1.0/65535+1e-6 {
		t.Fatalf("roundtrip error %v exceeds quantization bound", d)
	}
}

func TestPGMClampsOutOfRange(t *testing.T) {
	im := FromPix([]float32{-0.5, 0.5, 1.5, 1}, 2, 2)
	var buf bytes.Buffer
	if err := WritePGM(&buf, im); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(0, 0) != 0 || got.At(0, 1) != 1 {
		t.Fatalf("clamping failed: %v", got.Pix)
	}
}

func TestReadPGM8Bit(t *testing.T) {
	raw := append([]byte("P5\n2 2\n255\n"), 0, 128, 255, 64)
	got, err := ReadPGM(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.At(0, 0) != 0 || got.At(0, 1) != 255.0/255 {
		t.Fatalf("8-bit decode wrong: %v", got.Pix)
	}
	if math.Abs(float64(got.At(1, 0))-128.0/255) > 1e-6 {
		t.Fatalf("mid value wrong: %v", got.At(1, 0))
	}
}

func TestReadPGMRejectsBadInput(t *testing.T) {
	cases := []string{
		"P6\n2 2\n255\n",   // wrong magic
		"P5\n-1 2\n255\n",  // bad dims
		"P5\n2 2\n70000\n", // bad maxval
		"P5\n2 2\n255\nxy", // truncated pixels
	}
	for i, c := range cases {
		if _, err := ReadPGM(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestPFMRoundTripExact(t *testing.T) {
	// PFM stores raw float32, including negatives (invalid-disparity marks).
	im := FromPix([]float32{-1, 0, 3.25, 1e-3, 42.5, -7}, 3, 2)
	var buf bytes.Buffer
	if err := WritePFM(&buf, im); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPFM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(im, got); d != 0 {
		t.Fatalf("PFM roundtrip not exact: %v", d)
	}
}

func TestPFMRejectsBadInput(t *testing.T) {
	cases := []string{
		"PF\n2 2\n-1.0\n",  // color PFM not supported
		"Pf\n0 2\n-1.0\n",  // bad dims
		"Pf\n2 2\n0\n",     // zero scale
		"Pf\n2 2\n-1.0\nx", // truncated
	}
	for i, c := range cases {
		if _, err := ReadPFM(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	im := randImage(2, 8, 6)

	pgm := filepath.Join(dir, "x.pgm")
	if err := SavePGM(pgm, im); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPGM(pgm)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 8 || got.H != 6 {
		t.Fatal("PGM file roundtrip size wrong")
	}

	pfm := filepath.Join(dir, "x.pfm")
	if err := SavePFM(pfm, im); err != nil {
		t.Fatal(err)
	}
	got2, err := LoadPFM(pfm)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(im, got2) != 0 {
		t.Fatal("PFM file roundtrip not exact")
	}
}

// Property: PFM roundtrip is the identity for arbitrary finite values.
func TestQuickPFMIdentity(t *testing.T) {
	f := func(seed int64) bool {
		im := randImage(seed, 7, 5)
		for i := range im.Pix {
			im.Pix[i] = im.Pix[i]*200 - 100
		}
		var buf bytes.Buffer
		if err := WritePFM(&buf, im); err != nil {
			return false
		}
		got, err := ReadPFM(&buf)
		if err != nil {
			return false
		}
		return maxAbsDiff(im, got) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The serving path decodes attacker-supplied bytes with a tighter,
// configurable cap; the cap must fire before allocation and be
// distinguishable (by type) from a malformed header.
func TestReadLimitTypedError(t *testing.T) {
	im := NewImage(12, 9)
	var pgm, pfm bytes.Buffer
	if err := WritePGM(&pgm, im); err != nil {
		t.Fatal(err)
	}
	if err := WritePFM(&pfm, im); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		read func(max int) error
	}{
		{"PGM", func(max int) error {
			_, err := ReadPGMLimit(bytes.NewReader(pgm.Bytes()), max)
			return err
		}},
		{"PFM", func(max int) error {
			_, err := ReadPFMLimit(bytes.NewReader(pfm.Bytes()), max)
			return err
		}},
	}
	for _, c := range cases {
		// Under the cap: decodes fine.
		if err := c.read(12 * 9); err != nil {
			t.Fatalf("%s at exact cap: %v", c.name, err)
		}
		// Over the cap: typed error naming the cap.
		err := c.read(12*9 - 1)
		var tle *TooLargeError
		if !errors.As(err, &tle) {
			t.Fatalf("%s over cap: got %v, want *TooLargeError", c.name, err)
		}
		if tle.W != 12 || tle.H != 9 || tle.MaxPixels != 12*9-1 || tle.Format != c.name {
			t.Fatalf("%s error fields: %+v", c.name, tle)
		}
		// Cap <= 0 selects the permissive default.
		if err := c.read(0); err != nil {
			t.Fatalf("%s with default cap: %v", c.name, err)
		}
	}

	// Malformed (non-positive) dimensions stay a plain error, not a
	// TooLargeError: they indicate a broken file, not a big one.
	bad := strings.NewReader("P5\n0 5\n255\n")
	_, err := ReadPGMLimit(bad, 1<<20)
	var tle *TooLargeError
	if err == nil || errors.As(err, &tle) {
		t.Fatalf("zero-width PGM: got %v, want untyped parse error", err)
	}
}
