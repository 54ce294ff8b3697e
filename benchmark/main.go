// Command benchmark is the repository's benchmark (see README.md and
// ../BENCHMARK.json). It drives the ISM engine and the serving stack through
// their public functions only, checks outputs against the serial ISM oracle,
// and reports the end-to-end metrics of one untraced run or the per-layer
// metrics of one traced run.
//
//	bash benchmark/run.sh -seed 7                    # all workloads, untraced then traced
//	bash benchmark/run.sh -workload serve_gold -trace 0
//	bash benchmark/run.sh -repeat 2 && bash benchmark/run.sh -compare benchmark/out/result_1.json benchmark/out/result_2.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var o options
	workload := flag.String("workload", "", "run this one workload and print its result as the last line (default: all, each in a child process)")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	repeat := flag.Int("repeat", 0, "run the full set N times, write result_<k>.json, and print each metric's spread")
	flag.Int64Var(&o.seed, "seed", 7, "workload seed (session i draws its sensor noise from seed+i)")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the measured part of a run")
	flag.StringVar(&o.outDir, "out", defaultOut(), "directory for traces and result files")
	flag.BoolVar(&o.smoke, "smoke", false, "about 1 s per workload and no bounds: checks the harness, measures nothing")
	flag.Parse()
	if o.smoke {
		o.seconds = 1
	}

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(2, "usage: -compare a.json b.json")
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *workload != "":
		requireTwoCPUs()
		o.trace = *trace == 1
		err = runOne(*workload, o)
	case *repeat > 0:
		requireTwoCPUs()
		err = repeatSets(*repeat, o)
	default:
		requireTwoCPUs()
		_, err = runSet(o, filepath.Join(o.outDir, "result.json"))
	}
	if err != nil {
		fail(1, err.Error())
	}
}

func fail(code int, msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	os.Exit(code)
}

// requireTwoCPUs refuses hosts on which two sessions and the workers behind
// them would only time-slice: every number would measure contention.
func requireTwoCPUs() {
	if n := runtime.NumCPU(); n < 2 {
		fail(2, fmt.Sprintf("needs at least 2 CPUs, found %d: two sessions on one core measure time-slicing, not the program", n))
	}
}

func defaultOut() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// runOne runs one workload in this process, writes its detailed result
// file, and prints the one-line result last.
func runOne(name string, o options) error {
	sp, ok := specByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(specNames(), ", "))
	}
	r, err := runWorkload(sp, o)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := writeJSON(runFile(o.outDir, name, o.trace), r); err != nil {
		return err
	}
	printRun(r)
	fmt.Println(resultLine(r))
	if !r.Correct {
		return fmt.Errorf("%s: %d of %d frames failed or differed from the oracle", name, r.Failed, r.Attempted)
	}
	return nil
}

func specNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	return names
}

func runFile(dir, workload string, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(dir, fmt.Sprintf("run_%s_trace%d.json", workload, t))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func (r *runResult) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// resultLine is the machine-read last line of a single-workload run.
func resultLine(r *runResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, d := range r.defs() {
		metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	buf, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		// Unreachable: the value holds only numbers, strings and a bool.
		panic(err)
	}
	return string(buf)
}

// printRun prints every metric of a run by name, with its unit.
func printRun(r *runResult) {
	mode := "untraced: end-to-end"
	if r.Trace {
		mode = "traced: per-layer"
	}
	fmt.Printf("== %s  (%s; seed %d, %g s, limit %g ms, %d latency samples)\n",
		r.Workload, mode, r.Seed, r.Seconds, r.Spec.LimitMs, r.Samples)
	for _, d := range r.defs() {
		flag := ""
		if d.Name == "latency_p95_ms" && !tailOK(r.Samples, 0.95) {
			flag = fmt.Sprintf("   [only %d samples: fewer than %d lie beyond p95]", r.Samples, tailSamples)
		}
		fmt.Printf("   %-32s %14.4f %s%s\n", d.Name, r.Metrics[d.Name], d.Unit, flag)
	}
	fmt.Printf("   %-32s %14.4f ratio   (%d failed of %d attempted)\n", "failed_frac",
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	if r.Trace {
		fmt.Printf("   host: the median probe took %.3f ms (reference %.2f); the times above are as measured\n", r.HostCalMs, refProbeMs)
	} else {
		fmt.Printf("   host: the median probe took %.3f ms (reference %.2f); the times above are at the reference speed, slice by slice (exponent %g)\n",
			r.HostCalMs, refProbeMs, r.Spec.CalExp)
	}
	for _, n := range r.Notes {
		fmt.Println("   note:", n)
	}
}

// resultSet is one full set: every workload untraced, then traced.
type resultSet struct {
	Env     envInfo      `json:"env"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Runs    []*runResult `json:"runs"`
}

// runSet runs every workload twice — untraced, then traced — each in a
// fresh child process of this binary, and writes the merged result file.
func runSet(o options, path string) (*resultSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := &resultSet{Env: readEnv(), Seed: o.seed, Seconds: o.seconds}
	incorrect := 0
	for _, traced := range []int{0, 1} {
		for _, sp := range specs {
			args := []string{"-workload", sp.Name, "-trace", fmt.Sprint(traced),
				"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-out", o.outDir}
			if o.smoke {
				args = append(args, "-smoke")
			}
			// A stale file from an earlier set must not stand in for a child
			// that died before writing its own.
			file := runFile(o.outDir, sp.Name, traced == 1)
			if err := os.Remove(file); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return nil, err
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			// A child that ran but failed its check has still written its
			// result; any other failure ends the set.
			runErr := cmd.Run()
			var r runResult
			buf, err := os.ReadFile(file)
			if err == nil {
				err = json.Unmarshal(buf, &r)
			}
			if err != nil {
				return nil, fmt.Errorf("%s (trace %d): child %v, result unreadable: %w", sp.Name, traced, runErr, err)
			}
			if !r.Correct {
				incorrect++
			}
			set.Runs = append(set.Runs, &r)
		}
	}
	if err := writeJSON(path, set); err != nil {
		return nil, err
	}
	fmt.Printf("\nresult file: %s   traces: %s\n", path, filepath.Join(o.outDir, "trace_<workload>.json"))
	if incorrect > 0 {
		return set, fmt.Errorf("%d runs failed the correctness check", incorrect)
	}
	return set, nil
}
