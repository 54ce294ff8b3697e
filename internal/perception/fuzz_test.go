package perception

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzCalibrationJSON hammers the calibration decoder with arbitrary bytes.
// Contract: never panic, reject only with *CalibrationError, and anything
// accepted must survive an encode/decode round trip unchanged (the property
// the snapshot codec and the serving layer both lean on).
func FuzzCalibrationJSON(f *testing.F) {
	f.Add([]byte(testCalib().EncodeJSON()))
	f.Add([]byte(DefaultCalibration(320, 200).EncodeJSON()))
	f.Add([]byte(`{"fx":64,"fy":64,"cx":32,"cy":24,"baseline_m":0.12}`))
	f.Add([]byte(`{"fx":0}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"fx":1e999,"fy":64,"cx":32,"cy":24,"baseline_m":0.1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseCalibration(data)
		if err != nil {
			var ce *CalibrationError
			if !errors.As(err, &ce) {
				t.Fatalf("rejection %v is not a *CalibrationError", err)
			}
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted calibration fails Validate: %v", err)
		}
		back, err := ParseCalibration(c.EncodeJSON())
		if err != nil {
			t.Fatalf("re-parse of accepted calibration failed: %v", err)
		}
		if *back != *c {
			t.Fatalf("round trip changed the calibration: %+v != %+v", back, c)
		}
	})
}

// FuzzCloudDecode hammers the binary point-cloud decoder. Contract: never
// panic, reject only with *cloudError, and anything accepted must re-encode
// to the identical bytes (the codec is canonical).
func FuzzCloudDecode(f *testing.F) {
	f.Add(EncodeCloud(&Cloud{W: 1, H: 1}))
	small := &Cloud{W: 2, H: 2, Points: []Point{{1, 2, 3, 0.5}, {-1, -2, 30, 1}}}
	f.Add(EncodeCloud(small))
	damaged := EncodeCloud(small)
	damaged[9] ^= 0xff
	f.Add(damaged)
	f.Add([]byte("ASVPCD"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeCloud(data, 1<<16)
		if err != nil {
			var ce *cloudError
			if !errors.As(err, &ce) {
				t.Fatalf("rejection %v is not a *cloudError", err)
			}
			return
		}
		if !bytes.Equal(EncodeCloud(c), data) {
			t.Fatal("accepted bytes do not re-encode bit-identically")
		}
	})
}
