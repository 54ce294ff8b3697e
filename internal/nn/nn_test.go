package nn

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestLayerOutDimsConv(t *testing.T) {
	l := Layer{Name: "c", Kind: KindConv, InC: 3, InD: 1, InH: 540, InW: 960,
		OutC: 64, KD: 1, KH: 7, KW: 7, Stride: 2, Pad: 3}
	d, h, w := l.OutDims()
	if d != 1 || h != 270 || w != 480 {
		t.Fatalf("OutDims = %d,%d,%d", d, h, w)
	}
}

func TestLayerMACsHandComputed(t *testing.T) {
	// 1x4x4 input, 2 filters of 1x3x3, stride 1 pad 1 -> out 2x4x4.
	l := Layer{Name: "c", Kind: KindConv, InC: 1, InD: 1, InH: 4, InW: 4,
		OutC: 2, KD: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if got := l.MACs(); got != 2*4*4*9 {
		t.Fatalf("MACs = %d, want %d", got, 2*4*4*9)
	}
}

func TestDeconvLayerCountsZeros(t *testing.T) {
	// A stride-2 deconvolution's naive MACs are computed over the upsampled
	// (mostly zero) input: out elems × inC × k².
	l := Layer{Name: "d", Kind: KindDeconv, InC: 8, InD: 1, InH: 10, InW: 10,
		OutC: 4, KD: 1, KH: 4, KW: 4, Stride: 2, Pad: 2} // transposed pad 1
	_, oh, ow := l.OutDims()
	if oh != 20 || ow != 20 {
		t.Fatalf("deconv out %dx%d, want 20x20", oh, ow)
	}
	if l.MACs() != int64(4*20*20*8*16) {
		t.Fatalf("deconv naive MACs = %d", l.MACs())
	}
}

func TestBuilderChainsShapes(t *testing.T) {
	b := NewBuilder("t", 3, 64, 64)
	b.Conv("c1", StageFE, 16, 3, 2, 1)
	c, d, h, w := b.Dims()
	if c != 16 || d != 1 || h != 32 || w != 32 {
		t.Fatalf("dims after conv = %d,%d,%d,%d", c, d, h, w)
	}
	b.Deconv("d1", StageDR, 8, 4, 2, 1)
	c, _, h, w = b.Dims()
	if c != 8 || h != 64 || w != 64 {
		t.Fatalf("dims after deconv = %d,%d,%d", c, h, w)
	}
}

func TestBuilderConv3RequiresReseed3(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder("t", 3, 8, 8).Conv3("c", StageMO, 4, 3, 1, 1)
}

func TestFCLayer(t *testing.T) {
	b := NewBuilder("t", 100, 1, 1)
	b.FC("fc", StageOther, 4096)
	n := b.Build()
	if n.Layers[0].MACs() != 100*4096 {
		t.Fatalf("FC MACs = %d", n.Layers[0].MACs())
	}
}

func TestStereoZooBuildsAndValidates(t *testing.T) {
	for _, n := range StereoZoo(QHDH, QHDW) {
		if len(n.Layers) == 0 {
			t.Fatalf("%s has no layers", n.Name)
		}
		n.Validate()
		if n.TotalMACs() <= 0 {
			t.Fatalf("%s has non-positive MACs", n.Name)
		}
	}
}

func TestStereoZooNames(t *testing.T) {
	want := []string{"FlowNetC", "DispNet", "GC-Net", "PSMNet"}
	zoo := StereoZoo(QHDH, QHDW)
	for i, n := range zoo {
		if n.Name != want[i] {
			t.Fatalf("zoo[%d] = %s, want %s", i, n.Name, want[i])
		}
	}
}

// Fig. 3's headline numbers: deconvolution contributes ~38% of MACs on
// average (50% max), and conv+deconv dominate.
func TestFig3DeconvShare(t *testing.T) {
	zoo := StereoZoo(QHDH, QHDW)
	var sum float64
	for _, n := range zoo {
		share := n.DeconvShare()
		if share <= 0.05 || share >= 0.75 {
			t.Errorf("%s deconv share = %.1f%%, implausible", n.Name, 100*share)
		}
		sum += share
	}
	avg := sum / float64(len(zoo))
	if avg < 0.20 || avg > 0.55 {
		t.Fatalf("average deconv share = %.1f%%, want roughly 38%%", 100*avg)
	}
}

// 3-D networks should be far more expensive and more deconv-heavy than the
// 2-D ones (paper Sec. 7.3 explains their larger gains).
func TestStereoZooCostOrdering(t *testing.T) {
	zoo := StereoZoo(QHDH, QHDW)
	byName := map[string]*Network{}
	for _, n := range zoo {
		byName[n.Name] = n
	}
	if byName["GC-Net"].TotalMACs() <= byName["DispNet"].TotalMACs() {
		t.Fatal("GC-Net (3-D volume) should out-cost DispNet")
	}
	if byName["PSMNet"].TotalMACs() <= byName["FlowNetC"].TotalMACs() {
		t.Fatal("PSMNet should out-cost FlowNetC")
	}
}

func TestStereoDNNvsClassicGap(t *testing.T) {
	// Paper Sec. 3.3: stereo DNN inference needs 10^2–10^4 x the ~87 MOps of
	// a non-key frame.
	for _, n := range StereoZoo(QHDH, QHDW) {
		ratio := float64(n.TotalMACs()) / 87e6
		if ratio < 100 || ratio > 5e5 {
			t.Errorf("%s / non-key ratio = %.0fx, want within 10^2–10^4 band (x5 slack)", n.Name, ratio)
		}
	}
}

func TestMACsByStagePartition(t *testing.T) {
	for _, n := range StereoZoo(270, 480) {
		m := n.MACsByStage()
		var sum int64
		for _, v := range m {
			sum += v
		}
		if sum != n.TotalMACs() {
			t.Fatalf("%s: stage MACs don't partition the total", n.Name)
		}
		if m[StageDR] == 0 {
			t.Fatalf("%s: no DR-stage cost", n.Name)
		}
	}
}

func TestGANZooBuilds(t *testing.T) {
	zoo := GANZoo()
	if len(zoo) != 6 {
		t.Fatalf("GAN zoo size = %d, want 6", len(zoo))
	}
	for _, n := range zoo {
		n.Validate()
		if n.DeconvMACs() == 0 {
			t.Fatalf("%s has no deconvolution cost", n.Name)
		}
		// Every GANNX network is deconv-dominated.
		if n.DeconvShare() < 0.5 {
			t.Errorf("%s deconv share = %.1f%%, want > 50%%", n.Name, 100*n.DeconvShare())
		}
	}
}

func Test3DGANUses3DDeconvs(t *testing.T) {
	var found bool
	for _, l := range ThreeDGAN().Layers {
		if l.Kind == KindDeconv && l.Is3D() {
			found = true
		}
	}
	if !found {
		t.Fatal("3D-GAN must contain 3-D deconvolutions")
	}
}

func TestLayerValidatePanics(t *testing.T) {
	bad := Layer{Name: "x", Kind: KindConv, InC: 0, InD: 1, InH: 4, InW: 4,
		OutC: 1, KD: 1, KH: 1, KW: 1, Stride: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bad.Validate()
}

// Property: MACs scale linearly with the number of output filters.
func TestQuickMACsLinearInFilters(t *testing.T) {
	f := func(cRaw, fRaw uint8) bool {
		c := int(cRaw)%16 + 1
		fo := int(fRaw)%16 + 1
		l := Layer{Name: "p", Kind: KindConv, InC: c, InD: 1, InH: 16, InW: 16,
			OutC: fo, KD: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}
		l2 := l
		l2.OutC = 2 * fo
		return l2.MACs() == 2*l.MACs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: halving resolution reduces a conv layer's MACs ~4x.
func TestQuickMACsQuadraticInResolution(t *testing.T) {
	f := func(hRaw uint8) bool {
		h := (int(hRaw)%16 + 4) * 4
		l := Layer{Name: "p", Kind: KindConv, InC: 8, InD: 1, InH: h, InW: h,
			OutC: 8, KD: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}
		l2 := l
		l2.InH, l2.InW = h/2, h/2
		r := float64(l.MACs()) / float64(l2.MACs())
		return r > 3.4 && r < 4.7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkSummaryAndParams(t *testing.T) {
	n := DCGAN()
	if n.Params() <= 0 {
		t.Fatal("parameter accounting broken")
	}
	s := n.Summary()
	if !strings.Contains(s, "DCGAN") || !strings.Contains(s, "deconv1") {
		t.Fatalf("summary missing content:\n%s", s)
	}
	// DCGAN generator has ~3.5M params in this configuration.
	if n.Params() < 1e6 || n.Params() > 50e6 {
		t.Fatalf("DCGAN params = %d, implausible", n.Params())
	}
}

func TestNetworkJSONRoundTrip(t *testing.T) {
	n := DispNet(135, 240)
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	var back Network
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != n.Name || len(back.Layers) != len(n.Layers) {
		t.Fatal("JSON round trip lost structure")
	}
	if back.TotalMACs() != n.TotalMACs() {
		t.Fatal("JSON round trip changed MAC accounting")
	}
}
