package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	var v []float64
	for i := 200; i >= 1; i-- {
		v = append(v, float64(i))
	}
	if got := percentile(v, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (nearest rank, no interpolation)", got)
	}
	if got := percentile(v, 1); got != 200 {
		t.Errorf("p100 = %v, want 200", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("p95 of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.95); got != 0 {
		t.Errorf("p95 of nothing = %v, want 0", got)
	}
	if v[0] != 200 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	if !tailOK(200, 0.95) {
		t.Error("200 samples leave ten beyond p95: want ok")
	}
	if tailOK(199, 0.95) {
		t.Error("199 samples leave nine beyond p95: want not ok")
	}
	if !tailOK(20, 0.5) {
		t.Error("20 samples leave ten beyond the median: want ok")
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of [1 2] = %v, %v; Python gives 0.75, 2.25", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestPingPong(t *testing.T) {
	want := []int{0, 1, 2, 3, 2, 1, 0, 1, 2, 3, 2}
	for i, w := range want {
		if got := pingPong(i, 4); got != w {
			t.Errorf("pingPong(%d, 4) = %d, want %d", i, got, w)
		}
	}
}

// stallSender replies in 1 ms, except that one frame takes stall.
type stallSender struct {
	n       int
	stallAt int
	stall   time.Duration
}

func (s *stallSender) send() (int, reply) {
	frame := s.n
	s.n++
	d := time.Millisecond
	if frame == s.stallAt {
		d = s.stall
	}
	time.Sleep(d)
	return frame, reply{ok: true}
}

// A stalled server must show in the latency of the frames it delayed: they
// were due while the stall lasted, so their clock started then, however
// quickly they were served once sent.
func TestPacedTimesFromDueTime(t *testing.T) {
	const period, stall = 10 * time.Millisecond, 80 * time.Millisecond
	s := &stallSender{stallAt: 2, stall: stall}
	shots := paced(0, s, time.Now(), 0, period, 200*time.Millisecond)
	if len(shots) != 20 {
		t.Fatalf("got %d shots, want 20: the schedule must not slow when the server does", len(shots))
	}
	if got := shots[2].latencyMs(); got < 75 {
		t.Errorf("stalled frame latency %.1f ms, want >= 75", got)
	}
	// Frame 3 was due 10 ms into the 80 ms stall.
	next := shots[3]
	if got := next.latencyMs(); got < 50 {
		t.Errorf("frame after the stall: latency %.1f ms from its due time, want >= 50 (the stall must not be hidden)", got)
	}
	if got := float64(next.done.Sub(next.sent)) / 1e6; got > 30 {
		t.Errorf("frame after the stall took %.1f ms from send; the test's premise is that it was served quickly", got)
	}
	if got := next.lateMs(); got < 50 {
		t.Errorf("frame after the stall: generator lateness %.1f ms, want >= 50", got)
	}
	// The backlog drains: overdue frames go out at once, so the last frames
	// are on schedule again.
	last := shots[len(shots)-1]
	if got := last.lateMs(); got > 8 {
		t.Errorf("last frame still %.1f ms late: overdue frames must be sent at once", got)
	}
	for i := 1; i < len(shots); i++ {
		if shots[i].sent.Before(shots[i-1].done) {
			t.Fatalf("frame %d sent before frame %d was done: more than one request outstanding", i, i-1)
		}
		if want := shots[0].due.Add(time.Duration(i) * period); !shots[i].due.Equal(want) {
			t.Fatalf("frame %d due %v, want %v", i, shots[i].due, want)
		}
	}
}

func TestClosedLoopTimesFromSend(t *testing.T) {
	s := &stallSender{stallAt: -1}
	shots := closedLoop(3, s, time.Now().Add(30*time.Millisecond))
	if len(shots) < 5 {
		t.Fatalf("only %d shots in 30 ms of a 1 ms server", len(shots))
	}
	for _, sh := range shots {
		if !sh.due.IsZero() || sh.lateMs() != 0 {
			t.Fatal("a closed loop has no schedule to be late against")
		}
		if sh.session != 3 {
			t.Fatalf("session %d, want 3", sh.session)
		}
		if got, want := sh.latencyMs(), float64(sh.done.Sub(sh.sent))/1e6; got != want {
			t.Fatalf("latency %v, want send-to-done %v", got, want)
		}
	}
}

func TestSteadyRateIsTheMedianBlock(t *testing.T) {
	// Three blocks of 2 frames: 200 ms, a 1 s stall, 200 ms; then a stray frame.
	cost := []float64{100, 100, 500, 500, 100, 100, 100}
	if got := steadyRate(cost, 2); math.Abs(got-10) > 1e-9 {
		t.Errorf("rate %v, want the median block's 10/s: a stall in one block must not move it", got)
	}
	if got := steadyRate(cost[:1], 2); math.Abs(got-10) > 1e-9 {
		t.Errorf("rate of less than one block %v, want frames over elapsed = 10/s", got)
	}
	if got := steadyRate(nil, 2); got != 0 {
		t.Errorf("rate of nothing %v, want 0", got)
	}
}

// A host at the reference speed leaves a time alone, a slower one shrinks it
// by less than the probe slowed, and an exponent of 0 leaves it as measured;
// sliced cuts a part into slices of about sliceLen with a burst before the
// first and after each, and scales what each slice measured where it lies.
func TestHostCalSlicesAndSlowdown(t *testing.T) {
	h := newHostCal(0.75)
	if got := slowdown(refProbeMs, refProbeMs, h.exp); math.Abs(got-1) > 1e-12 {
		t.Errorf("slowdown at the reference speed %v, want 1", got)
	}
	if got := slowdown(refProbeMs, 3*refProbeMs, h.exp); got <= 1 || got >= 2 {
		t.Errorf("slowdown with the probes twice as slow on average %v, want between 1 and 2", got)
	}
	if got := slowdown(2*refProbeMs, 2*refProbeMs, 0); got != 1 {
		t.Errorf("slowdown with exponent 0 %v, want 1", got)
	}
	var lens []time.Duration
	var times []float64
	h.sliced(3*sliceLen+sliceLen/4, func(d time.Duration) [][]float64 {
		lens = append(lens, d)
		times = append(times, 100)
		return [][]float64{times[len(times)-1:]}
	})
	if len(lens) != 3 || lens[0] < sliceLen || lens[0] > sliceLen*5/4 {
		t.Errorf("slices %v, want 3 of a little over %v", lens, sliceLen)
	}
	if len(h.readings) != len(lens)+1 {
		t.Errorf("%d bursts taken, want %d", len(h.readings), len(lens)+1)
	}
	for i, ms := range times {
		if want := 100 / slowdown(h.readings[i], h.readings[i+1], h.exp); math.Abs(ms-want) > 1e-9 {
			t.Errorf("slice %d: time scaled to %v, want %v", i, ms, want)
		}
	}
	if reading := h.take(); reading <= 0 || len(h.readings) != 0 {
		t.Errorf("take gave reading %v and left %d readings", reading, len(h.readings))
	}
}

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "frame", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "b", StartNs: 30, EndNs: 60},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", StartNs: 90, EndNs: 120}, // sticks out: clipped to the parent
		{ID: 5, Parent: 3, Name: "d", StartNs: 35, EndNs: 45},  // a grandchild is its parent's business
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 40, 2: 30, 3: 20, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if got := coverFrac(spans, "frame"); got != 0.6 {
		t.Errorf("cover of frame = %v, want 0.6", got)
	}
	if got := selfMs(spans)["frame"]; len(got) != 1 || got[0] != 40e-6 {
		t.Errorf("self ms of frame = %v", got)
	}
}

func TestTracerNilIsSilent(t *testing.T) {
	var tr *tracer
	if id := tr.open("x", 0, 0, 0, time.Now()); id != 0 {
		t.Errorf("nil tracer handed out id %d", id)
	}
	tr.close(0, time.Now())
	if tr.all() != nil {
		t.Error("nil tracer has spans")
	}
	live := newTracer()
	id := live.open("frame", 0, 1, 2, live.t0)
	kid := live.add("k", id, 1, 2, live.t0, live.t0.Add(time.Millisecond))
	live.close(id, live.t0.Add(2*time.Millisecond))
	got := live.all()
	if len(got) != 2 || got[0].EndNs != 2e6 || got[1].Parent != id || kid != 2 {
		t.Errorf("spans %+v", got)
	}
}

// BENCHMARK.json is what the driver reads; the tables in workload.go are
// what the program reports. They must say the same thing.
//
// UPDATE_BENCHMARK_JSON=1 go test -run BenchmarkJSON rewrites the file from
// the tables.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		type workload struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}
		var ws []workload
		for _, sp := range specs {
			ws = append(ws, workload{sp.Name, sp.Why})
		}
		type bounded struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}
		var e2e []bounded
		for _, d := range endToEnd {
			e2e = append(e2e, bounded(d))
		}
		if err := writeJSON(path, map[string]any{
			"command": []string{"bash", "benchmark/run.sh"}, "paths": []string{"benchmark"},
			"run_seconds": defaultSeconds, "workloads": ws, "end_to_end": e2e, "per_layer": perLayer,
		}); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in specs", len(doc.Workloads), len(specs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for i, w := range doc.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: %q / %q differs from the spec's %q / %q", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
		if len(w.Why) > 200 || !name.MatchString(w.Name) {
			t.Errorf("workload %q: name or why (%d chars) outside the schema", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", doc.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v: duplicate or outside the schema", d)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in s, lower better")
	}
}

func TestWorseByFollowsDirection(t *testing.T) {
	lower, higher := metricDef{Better: "lower"}, metricDef{Better: "higher"}
	if got := worseBy(lower, 100, 110); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-better 100 -> 110: worse by %v, want 0.1", got)
	}
	if got := worseBy(higher, 100, 110); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("higher-better 100 -> 110: worse by %v, want -0.1", got)
	}
	if got := worseBy(lower, 0, 5); got != 0 {
		t.Errorf("zero base: %v, want 0", got)
	}
}

func fakeSet(scale float64, failed int) *resultSet {
	set := &resultSet{}
	for _, sp := range specs {
		r := &runResult{Workload: sp.Name, Metrics: map[string]float64{}, Attempted: 100, Failed: failed}
		for _, d := range endToEnd {
			r.Metrics[d.Name] = 10
		}
		r.Metrics["latency_p50_ms"] = 10 * scale
		set.Runs = append(set.Runs, r, &runResult{Workload: sp.Name, Trace: true})
	}
	return set
}

func TestCompareMarksWhatIsOutside(t *testing.T) {
	a := fakeSet(1, 0)
	if n := compareSets(io.Discard, a, fakeSet(1.1, 0)); n != 0 {
		t.Errorf("10%% worse p50 against a 20%% bound: %d outside, want 0", n)
	}
	if n := compareSets(io.Discard, a, fakeSet(1.3, 0)); n != len(specs) {
		t.Errorf("30%% worse p50: %d outside, want one per workload (%d)", n, len(specs))
	}
	if n := compareSets(io.Discard, fakeSet(1.3, 0), a); n != 0 {
		t.Errorf("30%% better p50: %d outside, want 0", n)
	}
	if n := compareSets(io.Discard, a, fakeSet(1, 1)); n != len(specs) {
		t.Errorf("a failed frame: %d outside, want one per workload", n)
	}
	b := fakeSet(1, 0)
	b.Runs = b.Runs[2:]
	if n := compareSets(io.Discard, a, b); n != 1 {
		t.Errorf("a missing workload: %d outside, want 1", n)
	}
	if n := spreadTable(io.Discard, []*resultSet{fakeSet(1, 0), fakeSet(1.02, 0), fakeSet(1.04, 0)}); n != 0 {
		t.Errorf("a 4%% range: %d spreads outside, want 0", n)
	}
	if n := spreadTable(io.Discard, []*resultSet{fakeSet(1, 0), fakeSet(1.5, 0), fakeSet(2, 0)}); n != len(specs) {
		t.Errorf("a twofold range: %d spreads outside, want one per workload", n)
	}
}

func TestCompareFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSON(pa, fakeSet(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(pb, fakeSet(1.5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := compareFiles(pa, pa); err != nil {
		t.Errorf("a file against itself: %v", err)
	}
	if err := compareFiles(pa, pb); err == nil {
		t.Error("50% worse p50 passed the comparison")
	}
	if err := compareFiles(pa, filepath.Join(dir, "none.json")); err == nil {
		t.Error("a missing file passed the comparison")
	}
}

func TestResultLineShape(t *testing.T) {
	sp := specs[0]
	for _, traced := range []bool{false, true} {
		r := newResult(sp, options{trace: traced, seconds: 1})
		r.Attempted = 5
		r.finish()
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(resultLine(r)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Correct == nil || !*line.Correct || *line.Attempted != 5 || *line.Failed != 0 {
			t.Errorf("verdict fields wrong in %s", resultLine(r))
		}
		if len(line.Metrics) != len(r.defs()) {
			t.Errorf("trace=%v: %d metrics on the line, want %d", traced, len(line.Metrics), len(r.defs()))
		}
		for _, d := range r.defs() {
			if m, ok := line.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("metric %s missing or without unit %s", d.Name, d.Unit)
			}
		}
	}
}

// tinySpec is a workload small enough to run its oracle frames in a test.
func tinySpec(base string) spec {
	sp, _ := specByName(base)
	sp.W, sp.H, sp.MaxDisp = 64, 48, 16
	return sp
}

// The traced loop unrolls ProcessFrame into its public pieces; it must give
// the disparities the program's own entry point gives.
func TestTracedLoopIsBitIdentical(t *testing.T) {
	for _, base := range []string{"offline_key", "offline_ism", "offline_fixed"} {
		b, err := setupOffline(tinySpec(base), 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range []*tracer{nil, newTracer()} {
			s := b.newStream(tr)
			for s.next < oracleFrames {
				s.run(20*time.Millisecond, true)
			}
			if s.failed != 0 || s.attempted != s.next {
				t.Errorf("%s (traced %v): %d of %d frames differ from the oracle", base, tr != nil, s.failed, s.attempted)
			}
			if tr != nil {
				if c := coverFrac(tr.all(), "frame"); c < 0.95 {
					t.Errorf("%s: child spans cover %.3f of frame, want >= 0.95", base, c)
				}
			}
		}
	}
}

// A reply that differs from the oracle is a failed frame, not a slow one.
func TestOracleMismatchCountsAsFailed(t *testing.T) {
	for _, base := range []string{"serve_gold", "cluster_cloud_ckpt"} {
		b, err := setupServe(tinySpec(base), 3, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		b.clients[0].oracle.stats[3].Mean++
		b.clients[0].oracle.cloud = append([][]byte(nil), b.clients[0].oracle.cloud...)
		if len(b.clients[0].oracle.cloud) > 3 {
			b.clients[0].oracle.cloud[3] = []byte("not the cloud")
		}
		r := newResult(b.sp, options{})
		for b.clients[0].next < oracleFrames || b.clients[1].next < oracleFrames {
			tally(r, b.saturateAll(50*time.Millisecond))
		}
		if err := b.close(); err != nil {
			t.Error(err)
		}
		r.finish()
		if r.Failed != 1 || r.Correct {
			t.Errorf("%s: %d failed of %d, correct=%v; want exactly the tampered frame to fail", base, r.Failed, r.Attempted, r.Correct)
		}
	}
}

// -smoke runs every workload for about a second, untraced and traced: the
// whole harness end to end, no bounds.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads twice")
	}
	dir := t.TempDir()
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(sp, options{seed: 7, seconds: 1, smoke: true, trace: traced, outDir: dir})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", sp.Name, traced, err)
			}
			if !r.Correct || r.Attempted == 0 || r.Failed != 0 {
				t.Errorf("%s (trace %v): correct=%v, %d failed of %d", sp.Name, traced, r.Correct, r.Failed, r.Attempted)
			}
			if len(r.Metrics) != len(r.defs()) {
				t.Errorf("%s (trace %v): %d metrics, want %d", sp.Name, traced, len(r.Metrics), len(r.defs()))
			}
			if !traced {
				for _, d := range endToEnd {
					if v := r.Metrics[d.Name]; !(v > 0) {
						t.Errorf("%s: %s = %v, and a bounded metric may never read 0", sp.Name, d.Name, v)
					}
				}
				continue
			}
			if _, err := os.Stat(filepath.Join(dir, "trace_"+sp.Name+".json")); err != nil {
				t.Errorf("%s: no trace file: %v", sp.Name, err)
			}
			if c := r.Metrics["trace.frame_cover_frac"]; c < 0.95 {
				t.Errorf("%s: child spans cover %.3f of the root span", sp.Name, c)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("%s left behind: the spill directory must go when the servers do", e.Name())
		}
	}
}
