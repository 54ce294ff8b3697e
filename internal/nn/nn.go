// Package nn provides the layer-level intermediate representation of the
// DNNs evaluated in ASV, plus the network zoo: the four stereo DNNs
// (FlowNetC, DispNet, GC-Net, PSMNet) and the six GANs of the GANNX
// comparison. The IR records exactly what the accelerator models need:
// tensor shapes, kernel shapes, strides and processing-stage tags.
//
// MAC counts for deconvolution layers deliberately follow the *naive*
// execution model (dense convolution over the zero-upsampled input), since
// that is what a conventional accelerator executes; package deconv computes
// the post-transformation effective MACs.
package nn

import (
	"fmt"
	"strings"
)

// Stage tags a layer with its role in the stereo-matching pipeline
// (paper Sec. 2.2); Fig. 3 reports the cost split across these stages.
type Stage int

// Pipeline stages.
const (
	StageFE    Stage = iota // feature extraction
	StageMO                 // matching optimization
	StageDR                 // disparity refinement
	StageOther              // anything else (e.g. GAN layers)
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageFE:
		return "FE"
	case StageMO:
		return "MO"
	case StageDR:
		return "DR"
	default:
		return "Other"
	}
}

// Kind identifies the operator type of a layer.
type Kind int

// Layer kinds.
const (
	KindConv Kind = iota
	KindDeconv
	KindFC
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindConv:
		return "conv"
	case KindDeconv:
		return "deconv"
	default:
		return "fc"
	}
}

// Layer is one (de)convolution in the IR. 2-D layers have InD = KD = 1.
// For deconvolution, Pad is the border padding of the upsampled input
// (k-1-p for a framework's transposed padding p and kernel extent k).
type Layer struct {
	Name  string
	Kind  Kind
	Stage Stage

	InC, InD, InH, InW int // input feature-map shape
	OutC               int // number of filters
	KD, KH, KW         int // kernel shape
	Stride, Pad        int
}

// Is3D reports whether the layer has a depth dimension.
func (l Layer) Is3D() bool { return l.InD > 1 || l.KD > 1 }

// OutDims returns the output feature-map spatial shape (d, h, w).
func (l Layer) OutDims() (d, h, w int) {
	switch l.Kind {
	case KindDeconv:
		return deconvOut(l.InD, l.KD, l.Stride, l.Pad),
			deconvOut(l.InH, l.KH, l.Stride, l.Pad),
			deconvOut(l.InW, l.KW, l.Stride, l.Pad)
	case KindFC:
		return 1, 1, 1
	default:
		return convOut(l.InD, l.KD, l.Stride, l.Pad),
			convOut(l.InH, l.KH, l.Stride, l.Pad),
			convOut(l.InW, l.KW, l.Stride, l.Pad)
	}
}

func convOut(in, k, s, p int) int {
	if in == 1 && k == 1 {
		return 1
	}
	return (in+2*p-k)/s + 1
}

func deconvOut(in, k, s, p int) int {
	if in == 1 && k == 1 {
		return 1
	}
	return (in-1)*s + 1 + 2*p - k + 1
}

// MACs returns the multiply-accumulate count of executing the layer
// naively: for deconvolution this includes the multiplications against the
// inserted zeros (the inefficiency the transformation removes).
func (l Layer) MACs() int64 {
	od, oh, ow := l.OutDims()
	return int64(l.OutC) * int64(od) * int64(oh) * int64(ow) *
		int64(l.InC) * int64(l.KD) * int64(l.KH) * int64(l.KW)
}

// IfmapElems returns the input feature-map element count.
func (l Layer) IfmapElems() int64 {
	return int64(l.InC) * int64(l.InD) * int64(l.InH) * int64(l.InW)
}

// OfmapElems returns the output feature-map element count.
func (l Layer) OfmapElems() int64 {
	od, oh, ow := l.OutDims()
	return int64(l.OutC) * int64(od) * int64(oh) * int64(ow)
}

// WeightElems returns the kernel parameter count.
func (l Layer) WeightElems() int64 {
	return int64(l.OutC) * int64(l.InC) * int64(l.KD) * int64(l.KH) * int64(l.KW)
}

// Validate panics if the layer has inconsistent geometry.
func (l Layer) Validate() {
	if l.InC < 1 || l.OutC < 1 || l.InH < 1 || l.InW < 1 || l.InD < 1 {
		panic(fmt.Sprintf("nn: layer %q has non-positive dims", l.Name))
	}
	if l.KH < 1 || l.KW < 1 || l.KD < 1 || l.Stride < 1 || l.Pad < 0 {
		panic(fmt.Sprintf("nn: layer %q has bad kernel/stride/pad", l.Name))
	}
	d, h, w := l.OutDims()
	if d < 1 || h < 1 || w < 1 {
		panic(fmt.Sprintf("nn: layer %q has non-positive output %dx%dx%d", l.Name, d, h, w))
	}
}

// Network is an ordered list of layers (the layer-wise execution model of
// paper Sec. 4.2).
type Network struct {
	Name   string
	Layers []Layer
}

// TotalMACs sums naive MACs over all layers.
func (n *Network) TotalMACs() int64 {
	var s int64
	for _, l := range n.Layers {
		s += l.MACs()
	}
	return s
}

// DeconvMACs sums naive MACs over deconvolution layers only.
func (n *Network) DeconvMACs() int64 {
	var s int64
	for _, l := range n.Layers {
		if l.Kind == KindDeconv {
			s += l.MACs()
		}
	}
	return s
}

// MACsByStage returns naive MACs grouped by pipeline stage.
func (n *Network) MACsByStage() map[Stage]int64 {
	m := make(map[Stage]int64)
	for _, l := range n.Layers {
		m[l.Stage] += l.MACs()
	}
	return m
}

// DeconvShare returns the fraction of total MACs spent in deconvolution.
func (n *Network) DeconvShare() float64 {
	t := n.TotalMACs()
	if t == 0 {
		return 0
	}
	return float64(n.DeconvMACs()) / float64(t)
}

// Validate checks every layer and that consecutive shapes chain.
func (n *Network) Validate() {
	for i, l := range n.Layers {
		l.Validate()
		if i == 0 {
			continue
		}
		// Chaining is only enforced where the builder linked the layers;
		// networks with skip connections or cost-volume constructions mark
		// breaks by re-seeding dimensions, so nothing to check here.
	}
}

// Params returns the total parameter count of the network.
func (n *Network) Params() int64 {
	var s int64
	for _, l := range n.Layers {
		s += l.WeightElems()
	}
	return s
}

// Summary renders a one-line-per-layer description of the network.
func (n *Network) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d layers, %.2f GMACs, %.1f M params\n",
		n.Name, len(n.Layers), float64(n.TotalMACs())/1e9, float64(n.Params())/1e6)
	for _, l := range n.Layers {
		od, oh, ow := l.OutDims()
		fmt.Fprintf(&b, "  %-14s %-6s %-5s in %dx%dx%dx%d k%dx%dx%d/s%d -> %dx%dx%dx%d (%.1f MMACs)\n",
			l.Name, l.Kind.String(), l.Stage.String(),
			l.InC, l.InD, l.InH, l.InW, l.KD, l.KH, l.KW, l.Stride,
			l.OutC, od, oh, ow, float64(l.MACs())/1e6)
	}
	return b.String()
}
