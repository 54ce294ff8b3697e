package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStageObservations(t *testing.T) {
	r := NewRegistry()
	s := r.Stage("flow")
	s.Observe(2 * time.Millisecond)
	s.Observe(4 * time.Millisecond)
	s.Observe(6 * time.Millisecond)

	if got := s.Count(); got != 3 {
		t.Fatalf("count = %d", got)
	}
	if got := s.Total(); got != 12*time.Millisecond {
		t.Fatalf("total = %v", got)
	}
	if got := s.Mean(); got != 4*time.Millisecond {
		t.Fatalf("mean = %v", got)
	}
	if got := s.Min(); got != 2*time.Millisecond {
		t.Fatalf("min = %v", got)
	}
	if got := s.Max(); got != 6*time.Millisecond {
		t.Fatalf("max = %v", got)
	}
}

func TestStageIdentityAndOrder(t *testing.T) {
	r := NewRegistry()
	a := r.Stage("a")
	if r.Stage("a") != a {
		t.Fatal("Stage is not idempotent")
	}
	r.Stage("b")
	names := r.StageNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestQuantileBounds(t *testing.T) {
	r := NewRegistry()
	s := r.Stage("q")
	for i := 0; i < 99; i++ {
		s.Observe(time.Millisecond)
	}
	s.Observe(500 * time.Millisecond)
	p50 := s.Quantile(0.50)
	p99 := s.Quantile(0.99)
	if p50 < time.Millisecond || p50 > 4*time.Millisecond {
		t.Fatalf("p50 = %v, want ~1ms bucket", p50)
	}
	if p99 < time.Millisecond || p99 > 4*time.Millisecond {
		t.Fatalf("p99 = %v, want ~1ms bucket (99/100 are 1ms)", p99)
	}
	if got := s.Quantile(1.0); got < 256*time.Millisecond {
		t.Fatalf("p100 = %v, should reach the 500ms outlier's bucket", got)
	}
}

// Property: against a sorted-sample oracle, Quantile never under-reports the
// true quantile and never exceeds the stage's own Max.
func TestQuantileAgainstSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		s := NewRegistry().Stage("q")
		samples := make([]time.Duration, 1+rng.Intn(300))
		for i := range samples {
			// Log-uniform from sub-microsecond to minutes, so every bucket
			// (including the first and the overflow one) is exercised.
			samples[i] = time.Duration(math.Exp(rng.Float64() * math.Log(float64(10*time.Minute))))
			s.Observe(samples[i])
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1, rng.Float64()} {
			rank := max(int(q*float64(len(samples))), 1)
			got, truth := s.Quantile(q), samples[rank-1]
			if got < truth || got > s.Max() {
				t.Fatalf("trial %d: Quantile(%v) = %v, want in [%v (rank %d of %d), max %v]",
					trial, q, got, truth, rank, len(samples), s.Max())
			}
		}
	}
}

// A stage whose samples sit low in one bucket must not report the bucket's
// upper edge: p50 of a constant stage is that constant.
func TestQuantileClampedToObservedRange(t *testing.T) {
	s := NewRegistry().Stage("q")
	for i := 0; i < 10; i++ {
		s.Observe(600 * time.Millisecond) // bucket edge: ~1.05 s
	}
	for _, q := range []float64{0.5, 0.95, 1} {
		if got := s.Quantile(q); got != 600*time.Millisecond {
			t.Fatalf("Quantile(%v) = %v, want 600ms", q, got)
		}
	}
}

func TestConcurrentObserveIsConsistent(t *testing.T) {
	r := NewRegistry()
	s := r.Stage("par")
	const goroutines, each = 8, 250
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := s.Count(); got != goroutines*each {
		t.Fatalf("count = %d, want %d", got, goroutines*each)
	}
	if got := s.Total(); got != goroutines*each*time.Millisecond {
		t.Fatalf("total = %v", got)
	}
}

func TestSnapshotMarshalsToJSON(t *testing.T) {
	r := NewRegistry()
	r.Time("work", func() { time.Sleep(time.Millisecond) })
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"uptime_ms", "stages", "work", "alloc", "pool_gets"} {
		if !strings.Contains(string(raw), key) {
			t.Fatalf("snapshot JSON missing %q: %s", key, raw)
		}
	}
}

func TestDumpListsStagesAndAlloc(t *testing.T) {
	r := NewRegistry()
	r.Stage("keymatch").Observe(3 * time.Millisecond)
	r.Stage("flow").Observe(time.Millisecond)
	out := r.Dump()
	for _, want := range []string{"keymatch", "flow", "alloc:", "pool"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	// keymatch was registered first, so it must render first.
	if strings.Index(out, "keymatch") > strings.Index(out, "flow") {
		t.Fatalf("stage order not preserved:\n%s", out)
	}
}

// The snapshot field names are a wire format shared by the /metrics
// endpoint and the BENCH_*.json artifacts; renaming one silently breaks
// external consumers, so the schema is pinned here.
func TestSnapshotStableSchema(t *testing.T) {
	r := NewRegistry()
	r.Stage("frame").Observe(2 * time.Millisecond)
	snap := r.Snapshot()

	for _, key := range []string{"uptime_ms", "stages", "alloc"} {
		if _, ok := snap[key]; !ok {
			t.Fatalf("snapshot missing top-level key %q", key)
		}
	}
	stage, ok := snap["stages"].(map[string]any)["frame"].(map[string]any)
	if !ok {
		t.Fatalf("snapshot stages malformed: %#v", snap["stages"])
	}
	stageKeys := []string{"count", "total_ms", "mean_ms", "min_ms", "max_ms",
		"p50_ms", "p95_ms", "p99_ms"}
	for _, key := range stageKeys {
		if _, ok := stage[key]; !ok {
			t.Fatalf("stage snapshot missing key %q", key)
		}
	}
	if len(stage) != len(stageKeys) {
		t.Fatalf("stage snapshot grew unexpected keys: %#v (update the pinned schema deliberately)", stage)
	}
	alloc := snap["alloc"].(map[string]any)
	for _, key := range []string{"alloc_mb", "num_gc", "pool_gets", "pool_hits",
		"pool_puts", "pool_hit_rate_pc"} {
		if _, ok := alloc[key]; !ok {
			t.Fatalf("alloc snapshot missing key %q", key)
		}
	}

	// SnapshotJSON is valid JSON of the same map.
	var decoded map[string]any
	if err := json.Unmarshal(r.SnapshotJSON(), &decoded); err != nil {
		t.Fatalf("SnapshotJSON not valid JSON: %v", err)
	}
	if _, ok := decoded["stages"]; !ok {
		t.Fatal("SnapshotJSON missing stages")
	}
}

// snapshotSchema is the pinned wire format of SnapshotJSON — the schema the
// serving layer's /metrics endpoint and asvbench's BENCH_*.json artifacts
// promise to external dashboards. Every field is a pointer so a *missing*
// key fails as loudly as an unknown one: adding a field here is a deliberate
// schema extension, renaming or removing one is a break.
type snapshotSchema struct {
	UptimeMS *float64               `json:"uptime_ms"`
	Stages   map[string]stageSchema `json:"stages"`
	Alloc    *allocSchema           `json:"alloc"`
}

type stageSchema struct {
	Count   *int64   `json:"count"`
	TotalMS *float64 `json:"total_ms"`
	MeanMS  *float64 `json:"mean_ms"`
	MinMS   *float64 `json:"min_ms"`
	MaxMS   *float64 `json:"max_ms"`
	P50MS   *float64 `json:"p50_ms"`
	P95MS   *float64 `json:"p95_ms"`
	P99MS   *float64 `json:"p99_ms"`
}

type allocSchema struct {
	AllocMB       *float64 `json:"alloc_mb"`
	NumGC         *uint32  `json:"num_gc"`
	PoolGets      *int64   `json:"pool_gets"`
	PoolHits      *int64   `json:"pool_hits"`
	PoolPuts      *int64   `json:"pool_puts"`
	PoolHitRatePc *float64 `json:"pool_hit_rate_pc"`
}

// TestSnapshotJSONPinnedStruct decodes SnapshotJSON into the pinned schema
// with DisallowUnknownFields: an unknown field is a decode error, a missing
// field is a nil pointer, and either fails the test. This is the
// machine-checked form of the stable-schema promise in the Snapshot doc
// comment.
func TestSnapshotJSONPinnedStruct(t *testing.T) {
	r := NewRegistry()
	r.Stage("frame").Observe(3 * time.Millisecond)

	dec := json.NewDecoder(strings.NewReader(string(r.SnapshotJSON())))
	dec.DisallowUnknownFields()
	var snap snapshotSchema
	if err := dec.Decode(&snap); err != nil {
		t.Fatalf("SnapshotJSON no longer matches the pinned schema (unknown or mistyped field?): %v", err)
	}
	if snap.UptimeMS == nil {
		t.Error("snapshot missing pinned field uptime_ms")
	}
	if snap.Alloc == nil {
		t.Fatal("snapshot missing pinned object alloc")
	}
	allocFields := map[string]any{
		"alloc_mb": snap.Alloc.AllocMB, "num_gc": snap.Alloc.NumGC,
		"pool_gets": snap.Alloc.PoolGets, "pool_hits": snap.Alloc.PoolHits,
		"pool_puts": snap.Alloc.PoolPuts, "pool_hit_rate_pc": snap.Alloc.PoolHitRatePc,
	}
	for name, v := range allocFields {
		switch p := v.(type) {
		case *float64:
			if p == nil {
				t.Errorf("snapshot missing pinned field alloc.%s", name)
			}
		case *int64:
			if p == nil {
				t.Errorf("snapshot missing pinned field alloc.%s", name)
			}
		case *uint32:
			if p == nil {
				t.Errorf("snapshot missing pinned field alloc.%s", name)
			}
		}
	}
	stage, ok := snap.Stages["frame"]
	if !ok {
		t.Fatal("snapshot missing observed stage \"frame\"")
	}
	stageFields := map[string]*float64{
		"total_ms": stage.TotalMS, "mean_ms": stage.MeanMS, "min_ms": stage.MinMS,
		"max_ms": stage.MaxMS, "p50_ms": stage.P50MS, "p95_ms": stage.P95MS,
		"p99_ms": stage.P99MS,
	}
	if stage.Count == nil {
		t.Error("snapshot missing pinned field stages.frame.count")
	}
	for name, p := range stageFields {
		if p == nil {
			t.Errorf("snapshot missing pinned field stages.frame.%s", name)
		}
	}
}

// Snapshots must be safe (and sane) while every pipeline goroutine is still
// observing — the /metrics endpoint runs against a live server. Run with
// -race in CI.
func TestSnapshotDuringConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := []string{"flow", "keymatch", "frame"}[g%3]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Stage(name).Observe(time.Duration(i%100) * time.Microsecond)
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		snap := r.Snapshot()
		if _, err := json.Marshal(snap); err != nil {
			t.Errorf("snapshot %d not marshalable: %v", i, err)
		}
		_ = r.SnapshotJSON()
	}
	close(stop)
	wg.Wait()

	// After quiescence the counters must be exactly consistent.
	var total int64
	for _, name := range r.StageNames() {
		total += r.Stage(name).Count()
	}
	snap := r.Snapshot()
	var snapTotal int64
	for _, v := range snap["stages"].(map[string]any) {
		snapTotal += v.(map[string]any)["count"].(int64)
	}
	if total != snapTotal {
		t.Fatalf("post-quiescence snapshot count %d != live count %d", snapTotal, total)
	}
}
