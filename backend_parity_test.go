package asv

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"asv/internal/deconv"
	"asv/internal/testkit"
)

// canonicalReport hashes every scalar field of a Report bit-exactly: floats
// are serialized with the 'x' (hexadecimal, shortest round-trip) format, so
// any numerical drift — however small — changes the hash. This is the pin
// that proved the backend refactor kept the systolic model bit-identical.
func canonicalReport(r Report) string {
	hexf := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	dec := func(v int64) string { return strconv.FormatInt(v, 10) }
	fields := []string{
		r.Workload,
		strconv.Itoa(int(r.Policy)),
		dec(r.Cycles),
		hexf(r.Seconds),
		dec(r.MACs),
		dec(r.DRAMBytes),
		dec(r.SRAMBytes),
		hexf(r.EnergyJ),
		hexf(r.Energy.ComputeJ),
		hexf(r.Energy.SRAMJ),
		hexf(r.Energy.DRAMJ),
		hexf(r.Energy.LeakJ),
		dec(r.DeconvCycles),
		hexf(r.DeconvEnergyJ),
	}
	s := strings.Join(fields, "|")
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16]
}

// TestGoldenSystolicReports pins the systolic model's full report — every
// scalar field, bit-exact — across the stereo zoo (all four policies plus
// the PW-4 ISM mode) and the GAN zoo. The committed corpus was generated
// from the pre-refactor code, so a pass here is the proof that the backend
// interface migration did not perturb a single bit of the paper numbers.
func TestGoldenSystolicReports(t *testing.T) {
	if testing.Short() {
		t.Skip("qHD sweep in -short mode")
	}
	store := testkit.OpenStore(t, "testdata/golden_backend.txt")
	acc, err := BackendByName("systolic")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range StereoDNNs(QHDH, QHDW) {
		for _, pol := range []Policy{PolicyBaseline, PolicyDCT, PolicyConvR, PolicyILAR} {
			rep, err := RunOnBackend(acc, n, RunOptions{Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			store.Check(t, fmt.Sprintf("systolic.%s.%s", n.Name, pol), canonicalReport(rep))
		}
		ism, err := RunOnBackend(acc, n, RunOptions{Policy: PolicyILAR, PW: 4, NonKey: DefaultNonKeyCost()})
		if err != nil {
			t.Fatal(err)
		}
		store.Check(t, fmt.Sprintf("systolic.%s.ism-pw4.ilar", n.Name), canonicalReport(ism))
	}
	for _, n := range GANs() {
		for _, pol := range []Policy{PolicyBaseline, PolicyILAR} {
			rep, err := RunOnBackend(acc, n, RunOptions{Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			store.Check(t, fmt.Sprintf("systolic.%s.%s", n.Name, pol), canonicalReport(rep))
		}
	}
}

// TestBackendReportInvariants is the registry-driven differential suite:
// every registered backend, on every network of both zoos, under every
// policy it declares, must produce a self-consistent report. The MAC
// invariant ties each model back to the layer shapes: a report's total must
// sit within 1% of either the naive count or the post-transformation
// effective count from deconv.EffectiveMACs (scheduled models carry a small
// tiling overhead above the analytic count, hence the band), and any
// transformed policy must track the effective count, not the naive one.
func TestBackendReportInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("qHD sweep in -short mode")
	}
	stereo := StereoDNNs(QHDH, QHDW)
	nets := append(append([]*Network{}, stereo...), GANs()...)
	for _, be := range Backends() {
		d := be.Describe()
		for _, n := range nets {
			naive := n.TotalMACs()
			var eff int64
			for _, l := range n.Layers {
				eff += deconv.EffectiveMACs(l)
			}
			for _, pol := range d.Caps.Policies {
				rep, err := RunOnBackend(be, n, RunOptions{Policy: pol})
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", d.Name, n.Name, pol, err)
				}
				checkReportShape(t, d.Name, n.Name, pol, rep)
				m := float64(rep.MACs)
				if !approxEq(m, float64(naive), 1e-2) && !approxEq(m, float64(eff), 1e-2) {
					t.Errorf("%s/%s/%v: MACs %d match neither naive %d nor effective %d",
						d.Name, n.Name, pol, rep.MACs, naive, eff)
				}
				if pol.Transformed() && !approxEq(m, float64(eff), 1e-2) {
					t.Errorf("%s/%s/%v: transformed policy reports %d MACs, want ~effective %d",
						d.Name, n.Name, pol, rep.MACs, eff)
				}
				if rep.Policy != pol {
					t.Errorf("%s/%s/%v: report echoes policy %v", d.Name, n.Name, pol, rep.Policy)
				}
			}
		}
		// The ISM amortization claim only holds where the paper makes it:
		// qHD stereo networks, whose key-frame DNN dwarfs the per-frame
		// non-key work. (On the tiny GAN generators the motion-estimation
		// cost exceeds the DNN itself, so PW-4 would rightly be slower.)
		if d.Caps.ISM {
			best := d.Caps.Policies[len(d.Caps.Policies)-1]
			for _, n := range stereo {
				dnn, err := RunOnBackend(be, n, RunOptions{Policy: best})
				if err != nil {
					t.Fatal(err)
				}
				ism, err := RunOnBackend(be, n, RunOptions{Policy: best, PW: 4, NonKey: DefaultNonKeyCost()})
				if err != nil {
					t.Fatalf("%s/%s ISM: %v", d.Name, n.Name, err)
				}
				checkReportShape(t, d.Name, n.Name+"+ism", best, ism)
				if ism.Seconds >= dnn.Seconds {
					t.Errorf("%s/%s: PW-4 ISM (%.4gs) should beat per-frame DNN (%.4gs)",
						d.Name, n.Name, ism.Seconds, dnn.Seconds)
				}
			}
		}
	}
}

// checkReportShape asserts the field-level invariants every backend shares.
func checkReportShape(t *testing.T, be, net string, pol Policy, rep Report) {
	t.Helper()
	ctx := fmt.Sprintf("%s/%s/%v", be, net, pol)
	if rep.Workload == "" {
		t.Errorf("%s: empty workload", ctx)
	}
	if rep.Cycles <= 0 || rep.Seconds <= 0 || rep.MACs <= 0 || rep.EnergyJ <= 0 || rep.DRAMBytes <= 0 {
		t.Errorf("%s: degenerate totals %+v", ctx, rep)
	}
	if rep.SRAMBytes < 0 {
		t.Errorf("%s: negative SRAM traffic", ctx)
	}
	for name, v := range map[string]float64{
		"compute": rep.Energy.ComputeJ, "sram": rep.Energy.SRAMJ,
		"dram": rep.Energy.DRAMJ, "leak": rep.Energy.LeakJ,
	} {
		if v < 0 {
			t.Errorf("%s: negative %s energy", ctx, name)
		}
	}
	if tot := rep.Energy.Total(); !approxEq(tot, rep.EnergyJ, 1e-9) {
		t.Errorf("%s: breakdown total %.12g != EnergyJ %.12g", ctx, tot, rep.EnergyJ)
	}
	if rep.DeconvCycles < 0 || rep.DeconvCycles > rep.Cycles {
		t.Errorf("%s: deconv cycles %d outside [0, %d]", ctx, rep.DeconvCycles, rep.Cycles)
	}
	if rep.DeconvEnergyJ < 0 || rep.DeconvEnergyJ > rep.EnergyJ*(1+1e-9) {
		t.Errorf("%s: deconv energy %.4g outside [0, %.4g]", ctx, rep.DeconvEnergyJ, rep.EnergyJ)
	}
	if rep.FPS() <= 0 {
		t.Errorf("%s: no frame rate", ctx)
	}
}

func approxEq(a, b, rel float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if bb := b; bb > m {
		m = bb
	} else if -bb > m {
		m = -bb
	}
	return d <= rel*m || d == 0
}
