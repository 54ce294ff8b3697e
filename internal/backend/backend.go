package backend

import (
	"fmt"

	"asv/internal/nn"
)

// Capabilities declares which RunOptions a backend can honor. Normalize
// validates options against it, so a model is never silently run in a mode
// it does not actually implement (the pre-refactor bug surface: eyeriss
// took a bare `transformed bool` and would have misreported ILAR).
type Capabilities struct {
	// Policies lists the scheduling policies the model implements, in
	// ascending optimization order.
	Policies []Policy
	// ISM reports whether the model implements the non-key-frame extensions
	// (SAD-capable PEs plus the pointwise scalar unit), i.e. whether a
	// propagation window larger than 1 is meaningful.
	ISM bool
}

// SupportsPolicy reports whether p is in the supported set.
func (c Capabilities) SupportsPolicy(p Policy) bool {
	for _, q := range c.Policies {
		if q == p {
			return true
		}
	}
	return false
}

// Description is a backend's self-description: its name (the key
// backends.ByName resolves), a one-line summary of the modeled hardware,
// and its capabilities.
type Description struct {
	Name    string
	Summary string
	Caps    Capabilities
}

// Backend is one accelerator model. Describe carries its name and the
// capability set RunOptions are validated against; RunNetwork
// executes one inference (or, for PW > 1 on ISM-capable models, the
// average ISM frame) and returns its full cost breakdown.
//
// RunNetwork requires normalized options: call opts.Normalize (or use the
// package-level Run helper) first. Implementations may panic on options
// their capabilities exclude — validation is the caller's contract.
type Backend interface {
	Describe() Description
	RunNetwork(n *nn.Network, opts RunOptions) Report
}

// RunOptions carries every knob of the unified RunNetwork signature. The
// zero value is valid on all backends: baseline policy, DNN-only (PW 1).
type RunOptions struct {
	// Policy selects the scheduling/optimization level. Backends that do
	// not schedule (GPU, GANNX) accept only PolicyBaseline, their native
	// execution.
	Policy Policy
	// PW is the ISM propagation window: the key-frame cost is amortized
	// over PW-1 non-key frames. 0 is normalized to 1 (pure DNN execution);
	// values above 1 require an ISM-capable backend and a NonKey cost.
	PW int
	// NonKey is the per-frame demand of the non-key work; required when
	// PW > 1, ignored otherwise.
	NonKey NonKeyCost
}

// UnsupportedError is returned when options ask a backend for a mode its
// capabilities exclude (e.g. ILAR on a model without inter-layer reuse).
type UnsupportedError struct {
	Backend string // Description.Name
	Feature string // human-readable feature, e.g. `policy "ilar"`
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("backend %q does not support %s", e.Backend, e.Feature)
}

// OptionsError is returned when options are malformed regardless of
// backend (negative window, negative non-key demand, unknown policy).
type OptionsError struct {
	Msg string
}

func (e *OptionsError) Error() string { return "invalid run options: " + e.Msg }

// Normalize validates o against a backend's description and returns the
// canonical form (PW 0 → 1). It returns *OptionsError for malformed
// options and *UnsupportedError for modes the backend does not model.
func (o RunOptions) Normalize(d Description) (RunOptions, error) {
	if o.Policy < PolicyBaseline || o.Policy > PolicyILAR {
		return o, &OptionsError{Msg: fmt.Sprintf("unknown policy %v", o.Policy)}
	}
	if o.PW < 0 {
		return o, &OptionsError{Msg: fmt.Sprintf("propagation window %d < 0", o.PW)}
	}
	if o.PW == 0 {
		o.PW = 1
	}
	if !d.Caps.SupportsPolicy(o.Policy) {
		return o, &UnsupportedError{Backend: d.Name, Feature: fmt.Sprintf("policy %q", o.Policy)}
	}
	if o.PW > 1 {
		if !d.Caps.ISM {
			return o, &UnsupportedError{Backend: d.Name, Feature: fmt.Sprintf("ISM (propagation window %d)", o.PW)}
		}
		if o.NonKey.ArrayMACs < 0 || o.NonKey.ScalarOps < 0 || o.NonKey.FrameBytes < 0 {
			return o, &OptionsError{Msg: fmt.Sprintf("negative non-key cost %+v", o.NonKey)}
		}
		if o.NonKey == (NonKeyCost{}) {
			return o, &OptionsError{Msg: fmt.Sprintf("propagation window %d needs a non-key cost", o.PW)}
		}
	} else {
		o.NonKey = NonKeyCost{}
	}
	return o, nil
}

// Run is the validating entry point: it normalizes opts against b's
// capabilities and executes the network, returning a typed error instead
// of a silently wrong report when the backend cannot honor the options.
func Run(b Backend, n *nn.Network, opts RunOptions) (Report, error) {
	norm, err := opts.Normalize(b.Describe())
	if err != nil {
		return Report{}, err
	}
	return b.RunNetwork(n, norm), nil
}
