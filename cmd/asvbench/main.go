// Command asvbench regenerates the tables and figures of the ASV paper's
// evaluation as text tables.
//
// Usage:
//
//	asvbench -list
//	asvbench -exp fig10
//	asvbench -exp all -scale full
//
// -scale quick (default) runs the accuracy experiments on a reduced
// synthetic dataset; -scale full uses all 26 SceneFlow-like sequences and
// 200 KITTI-like pairs, as in the paper.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"asv"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (fig1,fig3,fig4,fig9,fig10,fig11,fig12,fig13,fig14,backends,sec71,sec33,all)")
	scale := flag.String("scale", "quick", "dataset scale for accuracy experiments (quick|full)")
	list := flag.Bool("list", false, "list available experiments and exit")
	backendName := flag.String("backend", "", "run the network-zoo cost sweep on one backend ("+strings.Join(asv.BackendNames(), "|")+") and exit")
	flag.StringVar(&jsonPath, "json", "", "with -exp backends: also write the sweep to this JSON file")
	flag.StringVar(&format, "format", "table", "output format (table|csv)")
	flag.Parse()
	if format != "table" && format != "csv" {
		fmt.Fprintf(os.Stderr, "unknown format %q\n", format)
		os.Exit(2)
	}

	if *list {
		for _, l := range asv.ExperimentIndex() {
			fmt.Println(l)
		}
		return
	}

	if *backendName != "" {
		if _, err := asv.BackendByName(*backendName); err != nil {
			fmt.Fprintln(os.Stderr, "asvbench:", err)
			os.Exit(2)
		}
		backendsTable(fmt.Sprintf("Backend %q: network zoo x supported policies", *backendName),
			asv.ExperimentBackendsFor(*backendName))
		return
	}

	var sc asv.ExpScale
	switch *scale {
	case "quick":
		sc = asv.QuickScale()
	case "full":
		sc = asv.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	runners := map[string]func(asv.ExpScale){
		"fig1":           fig1,
		"fig3":           func(asv.ExpScale) { fig3() },
		"fig4":           func(asv.ExpScale) { fig4() },
		"fig9":           fig9,
		"fig10":          func(asv.ExpScale) { fig10() },
		"fig11":          func(asv.ExpScale) { fig11() },
		"fig12":          func(asv.ExpScale) { fig12() },
		"fig13":          func(asv.ExpScale) { fig13() },
		"fig14":          func(asv.ExpScale) { fig14() },
		"backends":       func(asv.ExpScale) { backendsExp() },
		"sec71":          func(asv.ExpScale) { sec71() },
		"sec33":          func(asv.ExpScale) { sec33() },
		"ablation-me":    ablationME,
		"ablation-param": ablationParam,
		"ablation-key":   ablationKey,
		"ablation-order": ablationOrder,
	}
	order := []string{"fig1", "fig3", "fig4", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "sec71", "sec33",
		"ablation-me", "ablation-param", "ablation-key", "ablation-order",
		"backends"}

	if *exp == "all" {
		for _, name := range order {
			runners[name](sc)
		}
		return
	}
	run, ok := runners[strings.ToLower(*exp)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *exp)
		os.Exit(2)
	}
	run(sc)
}

// format selects the output renderer ("table" or "csv").
var format = "table"

// jsonPath, when non-empty, is where -exp backends writes its JSON record.
var jsonPath = ""

func table(title string, header []string, rows [][]string) {
	if format == "csv" {
		fmt.Printf("# %s\n", title)
		w := csv.NewWriter(os.Stdout)
		dieIf(w.Write(header))
		dieIf(w.WriteAll(rows)) // WriteAll flushes and reports any buffered error
		return
	}
	fmt.Printf("\n== %s ==\n", title)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	dieIf(w.Flush())
}

// dieIf aborts on output errors (a closed pipe, a full disk): silently
// truncated benchmark tables are worse than no tables.
func dieIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "asvbench:", err)
		os.Exit(1)
	}
}

func fig1(sc asv.ExpScale) {
	var rows [][]string
	for _, p := range asv.ExperimentFig1(sc) {
		rows = append(rows, []string{p.Name, p.Class,
			fmt.Sprintf("%.2f", p.ErrorPct), fmt.Sprintf("%.2f", p.FPS)})
	}
	table("Fig 1: accuracy/performance frontier (qHD)",
		[]string{"system", "class", "error-%", "FPS"}, rows)
}

func fig3() {
	var rows [][]string
	for _, r := range asv.ExperimentFig3() {
		rows = append(rows, []string{r.Net,
			fmt.Sprintf("%.1f", r.FEPct), fmt.Sprintf("%.1f", r.MOPct),
			fmt.Sprintf("%.1f", r.DRPct), fmt.Sprintf("%.1f", r.DeconvPct)})
	}
	table("Fig 3: operation distribution (paper: deconv avg 38.2%)",
		[]string{"network", "FE-%", "MO-%", "DR-%", "deconv-%"}, rows)
}

func fig4() {
	var rows [][]string
	for _, p := range asv.ExperimentFig4() {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", p.DepthM), fmt.Sprintf("%.2f", p.DispErrPx),
			fmt.Sprintf("%.3f", p.DepthErrM)})
	}
	table("Fig 4: depth error vs disparity error (Bumblebee2)",
		[]string{"depth-m", "disp-err-px", "depth-err-m"}, rows)
}

func fig9(sc asv.ExpScale) {
	var rows [][]string
	for _, r := range asv.ExperimentFig9(sc) {
		rows = append(rows, []string{r.Dataset, r.Net, r.Mode, fmt.Sprintf("%.2f", r.ErrorPct)})
	}
	table("Fig 9: ISM accuracy vs DNN (three-pixel error)",
		[]string{"dataset", "network", "mode", "error-%"}, rows)
}

func fig10() {
	var rows [][]string
	for _, r := range asv.ExperimentFig10() {
		rows = append(rows, []string{r.Net, r.Variant,
			fmt.Sprintf("%.2f", r.Speedup), fmt.Sprintf("%.1f", r.EnergyRedPct)})
	}
	table("Fig 10: speedup & energy vs baseline (paper avg: 4.9x / 85%)",
		[]string{"network", "variant", "speedup-x", "energy-red-%"}, rows)
}

func fig11() {
	var rows [][]string
	for _, r := range asv.ExperimentFig11() {
		rows = append(rows, []string{r.Net, r.Opt,
			fmt.Sprintf("%.2f", r.DeconvSpeedup), fmt.Sprintf("%.1f", r.DeconvEnergyRedPct),
			fmt.Sprintf("%.2f", r.NetSpeedup), fmt.Sprintf("%.1f", r.NetEnergyRedPct)})
	}
	table("Fig 11: deconvolution optimizations (deconv-only and whole net)",
		[]string{"network", "opt", "deconv-x", "deconv-en-%", "net-x", "net-en-%"}, rows)
}

func fig12() {
	g := asv.ExperimentFig12()
	header := []string{"buf\\PE"}
	for _, pe := range g.PEs {
		header = append(header, fmt.Sprintf("%dx%d", pe, pe))
	}
	var spRows, enRows [][]string
	for i, mb := range g.BufsMB {
		sp := []string{fmt.Sprintf("%.1fMB", mb)}
		en := []string{fmt.Sprintf("%.1fMB", mb)}
		for j := range g.PEs {
			sp = append(sp, fmt.Sprintf("%.2f", g.Speedup[i][j]))
			en = append(en, fmt.Sprintf("%.2f", g.EnergyRed[i][j]))
		}
		spRows = append(spRows, sp)
		enRows = append(enRows, en)
	}
	table("Fig 12a: DCO speedup sensitivity (FlowNetC)", header, spRows)
	table("Fig 12b: DCO energy-reduction sensitivity (FlowNetC)", header, enRows)
}

func fig13() {
	var rows [][]string
	for _, r := range asv.ExperimentFig13() {
		rows = append(rows, []string{r.System,
			fmt.Sprintf("%.2f", r.Speedup), fmt.Sprintf("%.2f", r.NormEnergy)})
	}
	table("Fig 13: vs Eyeriss (paper: ASV 8.2x, 0.16 energy)",
		[]string{"system", "speedup-x", "norm-energy"}, rows)
}

func fig14() {
	var rows [][]string
	for _, r := range asv.ExperimentFig14() {
		rows = append(rows, []string{r.GAN,
			fmt.Sprintf("%.2f", r.ASVSpeedup), fmt.Sprintf("%.2f", r.ASVEnergyRed),
			fmt.Sprintf("%.2f", r.GANNXSpeedup), fmt.Sprintf("%.2f", r.GANNXEnergyRed)})
	}
	table("Fig 14: GANs vs Eyeriss (paper: ASV 5.0/4.2, GANNX 3.6/3.2)",
		[]string{"GAN", "ASV-x", "ASV-en-x", "GANNX-x", "GANNX-en-x"}, rows)
}

// backendsTable renders a backend-sweep row set.
func backendsTable(title string, rows []asv.BackendRow) {
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{r.Backend, r.Net, r.Policy,
			fmt.Sprintf("%.2f", r.FPS), fmt.Sprintf("%.2f", r.EnergyMJ),
			fmt.Sprintf("%.2f", r.GMACs), fmt.Sprintf("%.1f", r.DRAMMB)})
	}
	table(title,
		[]string{"backend", "network", "policy", "FPS", "energy-mJ", "GMACs", "DRAM-MiB"}, tr)
}

// backendsDoc is the top-level record of BENCH_backends.json.
type backendsDoc struct {
	Backends []backendDesc    `json:"backends"`
	Rows     []asv.BackendRow `json:"rows"`
}

type backendDesc struct {
	Name     string   `json:"name"`
	Summary  string   `json:"summary"`
	Policies []string `json:"policies"`
	ISM      bool     `json:"ism"`
}

func backendsExp() {
	rows := asv.ExperimentBackends()
	backendsTable("Backend registry sweep: every model x network x supported policy", rows)

	if jsonPath == "" {
		return
	}
	var doc backendsDoc
	for _, b := range asv.Backends() {
		d := b.Describe()
		bd := backendDesc{Name: d.Name, Summary: d.Summary, ISM: d.Caps.ISM}
		for _, p := range d.Caps.Policies {
			bd.Policies = append(bd.Policies, p.String())
		}
		doc.Backends = append(doc.Backends, bd)
	}
	doc.Rows = rows
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "encode:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s\n", jsonPath)
}

func sec71() {
	o := asv.ExperimentSec71()
	table("Sec 7.1: hardware overhead of the ISM extensions",
		[]string{"metric", "value"},
		[][]string{
			{"per-PE area", fmt.Sprintf("+%.1f%%", o.PEAreaPct)},
			{"per-PE power", fmt.Sprintf("+%.1f%%", o.PEPowerPct)},
			{"total area", fmt.Sprintf("+%.2f%%", o.TotalAreaPct)},
			{"total power", fmt.Sprintf("+%.2f%%", o.TotalPowerPct)},
		})
}

func sec33() {
	row := asv.ExperimentSec33()
	rows := [][]string{
		{"non-key frame (qHD)", fmt.Sprintf("%.0f MOps", float64(row.NonKeyMACs)/1e6)},
	}
	for _, net := range []string{"FlowNetC", "DispNet", "GC-Net", "PSMNet"} {
		rows = append(rows, []string{net + " / non-key",
			fmt.Sprintf("%.0fx", row.DNNRatio[net])})
	}
	table("Sec 3.3: non-key cost (paper: ~87 MOps; DNN ratio 10^2-10^4)",
		[]string{"quantity", "value"}, rows)
}

func ablationME(sc asv.ExpScale) {
	var rows [][]string
	for _, r := range asv.ExperimentMEAblation(sc) {
		rows = append(rows, []string{r.ME,
			fmt.Sprintf("%.2f", r.ErrorPct), fmt.Sprintf("%.1f", r.MEMops)})
	}
	table("Ablation: motion-estimation choice (Sec 3.3; fast-motion scenes)",
		[]string{"estimator", "ISM-error-%", "ME-MOps/frame"}, rows)
}

func ablationParam(sc asv.ExpScale) {
	var rows [][]string
	for _, r := range asv.ExperimentISMParamAblation(sc) {
		rows = append(rows, []string{
			fmt.Sprintf("1/%d", r.FlowScale), fmt.Sprintf("±%d", r.RefineR),
			fmt.Sprintf("%.2f", r.ErrorPct), fmt.Sprintf("%.1f", r.NonKeyMops)})
	}
	table("Ablation: flow scale × guided-search radius",
		[]string{"flow-res", "search", "ISM-error-%", "nonkey-MOps"}, rows)
}

func ablationKey(sc asv.ExpScale) {
	var rows [][]string
	for _, r := range asv.ExperimentKeyPolicyAblation(sc) {
		rows = append(rows, []string{r.Policy,
			fmt.Sprintf("%.2f", r.ErrorPct), fmt.Sprintf("%.2f", r.KeyRate)})
	}
	table("Ablation: key-frame policy (static windows vs adaptive)",
		[]string{"policy", "ISM-error-%", "key-rate"}, rows)
}

func ablationOrder(asv.ExpScale) {
	var rows [][]string
	for _, r := range asv.ExperimentReuseOrderAblation() {
		rows = append(rows, []string{r.Net,
			fmt.Sprintf("%.2f", r.AutoMs), fmt.Sprintf("%.2f", r.IfmapMs),
			fmt.Sprintf("%.2f", r.WeightMs)})
	}
	table("Ablation: reuse order (Equ. 7 beta), transformed nets, ILAR",
		[]string{"network", "auto-ms", "ifmap-stationary-ms", "weight-stationary-ms"}, rows)
}
