// Command asvsched compiles one network onto an accelerator backend under a
// chosen scheduling policy and dumps the resulting cost report — including
// the per-layer schedule (cycles, MACs, DRAM traffic, rounds) on backends
// that expose one. It is the inspection tool for the dataflow optimizer of
// paper Sec. 4.2.
//
// Usage:
//
//	asvsched -net FlowNetC -policy ilar
//	asvsched -net DCGAN -policy baseline -h 540 -w 960
//	asvsched -net DispNet -backend eyeriss -policy dct
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"asv"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "asvsched:", err)
		os.Exit(2)
	}
}

// run executes the command with the given arguments, writing the report to
// out. Split from main so the cmd is testable end to end.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("asvsched", flag.ContinueOnError)
	fs.SetOutput(out)
	netName := fs.String("net", "FlowNetC", "network (FlowNetC, DispNet, GC-Net, PSMNet, DCGAN, GP-GAN, ArtGAN, MAGAN, 3D-GAN, DiscoGAN)")
	backendName := fs.String("backend", "systolic", "accelerator backend ("+strings.Join(asv.BackendNames(), "|")+")")
	policy := fs.String("policy", "ilar", "scheduling policy (baseline|dct|convr|ilar)")
	height := fs.Int("h", asv.QHDH, "input height (stereo networks)")
	width := fs.Int("w", asv.QHDW, "input width (stereo networks)")
	asJSON := fs.Bool("json", false, "emit the full report as JSON instead of a table")
	summary := fs.Bool("summary", false, "print the network architecture and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var net *asv.Network
	for _, n := range asv.StereoDNNs(*height, *width) {
		if strings.EqualFold(n.Name, *netName) {
			net = n
		}
	}
	for _, n := range asv.GANs() {
		if strings.EqualFold(n.Name, *netName) {
			net = n
		}
	}
	if net == nil {
		return fmt.Errorf("unknown network %q", *netName)
	}

	pol, err := asv.ParsePolicy(strings.ToLower(*policy))
	if err != nil {
		return err
	}

	if *summary {
		fmt.Fprint(out, net.Summary())
		return nil
	}

	be, err := asv.BackendByName(*backendName)
	if err != nil {
		return err
	}
	// The validating entry point: asking e.g. eyeriss for ILAR returns a
	// typed capability error instead of a silently wrong report.
	rep, err := asv.RunOnBackend(be, net, asv.RunOptions{Policy: pol})
	if err != nil {
		return err
	}

	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}

	fmt.Fprintf(out, "%s under policy %v on %s\n\n", net.Name, pol, be.Describe().Summary)
	if len(rep.PerLayer) > 0 {
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "layer\tkind\tcycles\tMACs\tDRAM-MB\trounds")
		for i, r := range rep.PerLayer {
			l := net.Layers[i]
			fmt.Fprintf(w, "%s\t%v\t%d\t%d\t%.2f\t%d\n",
				r.Name, l.Kind, r.Cycles, r.MACs, float64(r.DRAMBytes)/1e6, r.Rounds)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "(backend %q reports aggregate costs only — no per-layer schedule)\n", be.Describe().Name)
	}

	fmt.Fprintf(out, "\ntotal: %.3f ms, %.2f GMACs, %.1f MB DRAM, %.3f J (%.1f FPS)\n",
		rep.Seconds*1e3, float64(rep.MACs)/1e9, float64(rep.DRAMBytes)/1e6,
		rep.EnergyJ, rep.FPS())
	return nil
}
