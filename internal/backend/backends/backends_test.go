package backends

import (
	"slices"
	"strings"
	"testing"

	"asv/internal/backend"
	"asv/internal/nn"
)

func TestNamesAreSorted(t *testing.T) {
	want := []string{"eyeriss", "gannx", "gpu", "systolic"}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestEveryEntryAnswersToItsName(t *testing.T) {
	for _, name := range Names() {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Describe().Name; got != name {
			t.Errorf("ByName(%q) describes itself as %q", name, got)
		}
		if len(b.Describe().Caps.Policies) == 0 {
			t.Errorf("%s: no supported policies", name)
		}
	}
}

func TestByNameUnknownListsEveryName(t *testing.T) {
	_, err := ByName("nosuch")
	if err == nil {
		t.Fatal("ByName(nosuch) succeeded")
	}
	for _, name := range []string{"eyeriss", "gannx", "gpu", "systolic"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %s", err, name)
		}
	}
}

func TestEveryBackendRunsItsCapabilitySet(t *testing.T) {
	n := nn.DispNet(68, 120) // small shape: this is a wiring test, not a sweep
	for _, b := range All() {
		d := b.Describe()
		for _, pol := range d.Caps.Policies {
			rep, err := backend.Run(b, n, backend.RunOptions{Policy: pol})
			if err != nil {
				t.Errorf("%s/%v: %v", d.Name, pol, err)
				continue
			}
			if rep.Seconds <= 0 || rep.EnergyJ <= 0 || rep.MACs <= 0 {
				t.Errorf("%s/%v: degenerate report %+v", d.Name, pol, rep)
			}
		}
		if d.Caps.ISM {
			rep, err := backend.Run(b, n, backend.RunOptions{
				Policy: d.Caps.Policies[len(d.Caps.Policies)-1],
				PW:     4,
				NonKey: DefaultNonKey(),
			})
			if err != nil || rep.Seconds <= 0 {
				t.Errorf("%s ISM run: %v %+v", d.Name, err, rep)
			}
		}
	}
}

func TestDefaultNonKeyIsPopulated(t *testing.T) {
	nk := DefaultNonKey()
	if nk.ArrayMACs <= 0 || nk.ScalarOps <= 0 || nk.FrameBytes <= 0 {
		t.Fatalf("degenerate default non-key cost: %+v", nk)
	}
}
