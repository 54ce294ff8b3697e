package backend

import (
	"errors"
	"strings"
	"testing"

	"asv/internal/nn"
)

// fakeBackend is a minimal Backend for the Run tests.
type fakeBackend struct {
	name string
	caps Capabilities
}

func (f fakeBackend) Describe() Description {
	return Description{Name: f.name, Summary: "fake", Caps: f.caps}
}
func (f fakeBackend) RunNetwork(n *nn.Network, opts RunOptions) Report {
	return Report{Workload: n.Name, Policy: opts.Policy, Seconds: 1}
}

func allPolicies() Capabilities {
	return Capabilities{
		Policies: []Policy{PolicyBaseline, PolicyDCT, PolicyConvR, PolicyILAR},
		ISM:      true,
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		PolicyBaseline: "baseline",
		PolicyDCT:      "dct",
		PolicyConvR:    "convr",
		PolicyILAR:     "ilar",
		Policy(99):     "policy(99)",
	} {
		if got := p.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{PolicyBaseline, PolicyDCT, PolicyConvR, PolicyILAR} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("turbo"); err == nil {
		t.Error("ParsePolicy accepted an unknown name")
	}
}

func TestPolicyTransformed(t *testing.T) {
	if PolicyBaseline.Transformed() {
		t.Error("baseline should not be transformed")
	}
	for _, p := range []Policy{PolicyDCT, PolicyConvR, PolicyILAR} {
		if !p.Transformed() {
			t.Errorf("%v should be transformed", p)
		}
	}
}

func TestReportFPSZeroSafe(t *testing.T) {
	if fps := (Report{}).FPS(); fps != 0 {
		t.Fatalf("zero report FPS = %v, want 0", fps)
	}
	if fps := (Report{Seconds: 0.5}).FPS(); fps != 2 {
		t.Fatalf("FPS = %v, want 2", fps)
	}
}

func TestEnergyBreakdownTotalAndAdd(t *testing.T) {
	a := EnergyBreakdown{ComputeJ: 1, SRAMJ: 2, DRAMJ: 3, LeakJ: 4}
	if a.Total() != 10 {
		t.Fatalf("Total = %v, want 10", a.Total())
	}
	a.Add(EnergyBreakdown{ComputeJ: 1, SRAMJ: 1, DRAMJ: 1, LeakJ: 1})
	if a != (EnergyBreakdown{ComputeJ: 2, SRAMJ: 3, DRAMJ: 4, LeakJ: 5}) {
		t.Fatalf("Add gave %+v", a)
	}
}

func TestNormalizeZeroValueIsUniversal(t *testing.T) {
	// The zero RunOptions must validate on any backend that supports the
	// baseline policy, including ones without ISM.
	d := Description{Name: "min", Caps: Capabilities{Policies: []Policy{PolicyBaseline}}}
	got, err := RunOptions{}.Normalize(d)
	if err != nil {
		t.Fatal(err)
	}
	if got.PW != 1 {
		t.Fatalf("PW %d, want 1 after normalization", got.PW)
	}
}

func TestNormalizeRejectsUnsupportedPolicy(t *testing.T) {
	d := Description{Name: "gpu-like", Caps: Capabilities{Policies: []Policy{PolicyBaseline}}}
	_, err := RunOptions{Policy: PolicyILAR}.Normalize(d)
	var ue *UnsupportedError
	if !errors.As(err, &ue) {
		t.Fatalf("want *UnsupportedError, got %v", err)
	}
	if ue.Backend != "gpu-like" || !strings.Contains(ue.Feature, "ilar") {
		t.Fatalf("error lacks context: %+v", ue)
	}
}

func TestNormalizeRejectsISMOnNonISMBackend(t *testing.T) {
	d := Description{Name: "eyeriss-like", Caps: Capabilities{Policies: []Policy{PolicyBaseline, PolicyDCT}}}
	_, err := RunOptions{PW: 4, NonKey: NonKeyCost{ArrayMACs: 1}}.Normalize(d)
	var ue *UnsupportedError
	if !errors.As(err, &ue) {
		t.Fatalf("want *UnsupportedError, got %v", err)
	}
	if !strings.Contains(ue.Feature, "ISM") {
		t.Fatalf("error should name ISM: %+v", ue)
	}
}

func TestNormalizeOptionsErrors(t *testing.T) {
	d := Description{Name: "full", Caps: allPolicies()}
	cases := map[string]RunOptions{
		"unknown policy":      {Policy: Policy(7)},
		"negative policy":     {Policy: Policy(-1)},
		"negative PW":         {PW: -2},
		"negative non-key":    {PW: 4, NonKey: NonKeyCost{ArrayMACs: -1}},
		"PW>1 without NonKey": {PW: 4},
	}
	for name, opts := range cases {
		_, err := opts.Normalize(d)
		var oe *OptionsError
		if !errors.As(err, &oe) {
			t.Errorf("%s: want *OptionsError, got %v", name, err)
		}
	}
}

func TestNormalizeClearsNonKeyForPWOne(t *testing.T) {
	d := Description{Name: "full", Caps: allPolicies()}
	got, err := RunOptions{Policy: PolicyILAR, PW: 1, NonKey: NonKeyCost{ArrayMACs: 5}}.Normalize(d)
	if err != nil {
		t.Fatal(err)
	}
	if got.NonKey != (NonKeyCost{}) {
		t.Fatalf("NonKey should be zeroed at PW 1, got %+v", got.NonKey)
	}
}

func TestRunSurfacesTypedError(t *testing.T) {
	b := fakeBackend{name: "fake", caps: Capabilities{Policies: []Policy{PolicyBaseline}}}
	_, err := Run(b, nn.DispNet(8, 8), RunOptions{Policy: PolicyILAR})
	var ue *UnsupportedError
	if !errors.As(err, &ue) {
		t.Fatalf("Run should return the Normalize error, got %v", err)
	}
	rep, err := Run(b, nn.DispNet(8, 8), RunOptions{})
	if err != nil || rep.Seconds != 1 {
		t.Fatalf("valid Run failed: %v %+v", err, rep)
	}
}
