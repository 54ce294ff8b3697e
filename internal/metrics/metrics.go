// Package metrics instruments the streaming runtime: per-stage frame
// counters, latency histograms and allocation statistics, cheap enough to
// leave on in production. A Registry is a set of named stages; stages are
// created on first use and safe for concurrent observation from every
// pipeline goroutine.
//
// Two views are provided: Dump renders a human-readable text table, and
// Snapshot returns an expvar-style map that marshals directly to JSON.
package metrics

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asv/internal/imgproc"
)

// nBuckets covers latencies from <1µs up to >2^40µs in power-of-two steps;
// bucket i counts observations with ceil(log2(µs)) == i.
const nBuckets = 42

// Stage accumulates observations for one named pipeline stage. All methods
// are safe for concurrent use.
type Stage struct {
	name  string
	count atomic.Int64
	sumNs atomic.Int64
	minNs atomic.Int64 // 0 when unset; stored as ns+1 so 0 ns is representable
	maxNs atomic.Int64
	// buckets is the latency histogram over power-of-two microsecond bins.
	buckets [nBuckets]atomic.Int64
}

// Name returns the stage name.
func (s *Stage) Name() string { return s.name }

// Observe records one completed unit of work (typically one frame) that
// took d.
func (s *Stage) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	s.count.Add(1)
	s.sumNs.Add(ns)
	for {
		cur := s.minNs.Load()
		if cur != 0 && cur <= ns+1 {
			break
		}
		if s.minNs.CompareAndSwap(cur, ns+1) {
			break
		}
	}
	for {
		cur := s.maxNs.Load()
		if cur >= ns {
			break
		}
		if s.maxNs.CompareAndSwap(cur, ns) {
			break
		}
	}
	s.buckets[bucketOf(ns)].Add(1)
}

// Count returns the number of observations.
func (s *Stage) Count() int64 { return s.count.Load() }

// Total returns the summed observed latency.
func (s *Stage) Total() time.Duration { return time.Duration(s.sumNs.Load()) }

// Mean returns the mean observed latency (0 with no observations).
func (s *Stage) Mean() time.Duration {
	n := s.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(s.sumNs.Load() / n)
}

// Min returns the smallest observed latency (0 with no observations).
func (s *Stage) Min() time.Duration {
	v := s.minNs.Load()
	if v == 0 {
		return 0
	}
	return time.Duration(v - 1)
}

// Max returns the largest observed latency.
func (s *Stage) Max() time.Duration { return time.Duration(s.maxNs.Load()) }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) of the
// observed latencies, resolved to the histogram's power-of-two buckets and
// clamped to [Min, Max]: a bucket's upper edge can lie up to 2x above every
// sample in it, and no quantile lies outside the observed range.
func (s *Stage) Quantile(q float64) time.Duration {
	n := s.count.Load()
	if n == 0 {
		return 0
	}
	target := int64(q * float64(n))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := 0; i < nBuckets; i++ {
		seen += s.buckets[i].Load()
		if seen >= target {
			return min(max(bucketUpper(i), s.Min()), s.Max())
		}
	}
	return s.Max()
}

// bucketOf maps a latency in ns to its histogram bucket.
func bucketOf(ns int64) int {
	us := uint64(ns / 1e3)
	b := bits.Len64(us) // 0 for <1µs, 1 for 1µs, ...
	if b >= nBuckets {
		b = nBuckets - 1
	}
	return b
}

// bucketUpper returns the inclusive upper latency bound of bucket i: the
// last nanosecond before 2^i µs (bucketOf truncates to whole microseconds).
func bucketUpper(i int) time.Duration {
	return time.Duration(int64(1)<<i)*time.Microsecond - 1
}

// Registry is a named collection of stages plus process-level allocation
// statistics. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu     sync.Mutex
	stages map[string]*Stage
	order  []string
	start  time.Time

	// memStart snapshots cumulative allocation at construction so the
	// registry reports work done during its lifetime, not since process
	// start.
	memStart runtime.MemStats
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{stages: make(map[string]*Stage), start: time.Now()}
	runtime.ReadMemStats(&r.memStart)
	return r
}

// Stage returns the named stage, creating it on first use.
func (r *Registry) Stage(name string) *Stage {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.stages[name]; ok {
		return s
	}
	s := &Stage{name: name}
	s.minNs.Store(0)
	r.stages[name] = s
	r.order = append(r.order, name)
	return s
}

// Time runs fn and records its latency under the named stage.
func (r *Registry) Time(name string, fn func()) {
	s := r.Stage(name)
	t0 := time.Now()
	fn()
	s.Observe(time.Since(t0))
}

// stagesInOrder returns the stages in creation order.
func (r *Registry) stagesInOrder() []*Stage {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Stage, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.stages[name])
	}
	return out
}

// AllocStats reports allocation activity since the registry was created.
type AllocStats struct {
	AllocMB   float64 // cumulative bytes allocated, MB
	NumGC     uint32  // GC cycles completed
	PoolGets  int64   // imgproc pool Get calls
	PoolHits  int64   // ... of which reused a pooled buffer
	PoolPuts  int64   // imgproc pool Put calls
	HitRatePc float64 // PoolHits / PoolGets, percent
}

// Alloc returns the allocation statistics.
func (r *Registry) Alloc() AllocStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	gets, hits, puts := imgproc.PoolStats()
	st := AllocStats{
		AllocMB:  float64(m.TotalAlloc-r.memStart.TotalAlloc) / (1 << 20),
		NumGC:    m.NumGC - r.memStart.NumGC,
		PoolGets: gets,
		PoolHits: hits,
		PoolPuts: puts,
	}
	if gets > 0 {
		st.HitRatePc = 100 * float64(hits) / float64(gets)
	}
	return st
}

// Snapshot returns an expvar-style view of the registry that marshals
// directly to JSON: uptime, per-stage counters/latencies and allocation
// statistics.
//
// The field names are a stable wire format shared by the serving layer's
// /metrics endpoint and asvbench's BENCH_*.json artifacts — external
// dashboards key off them. Per-stage keys: count, total_ms, mean_ms,
// min_ms, max_ms, p50_ms, p95_ms, p99_ms. Top level: uptime_ms, stages,
// alloc{alloc_mb, num_gc, pool_gets, pool_hits, pool_puts,
// pool_hit_rate_pc}. Add fields if needed; never rename or remove
// (TestSnapshotStableSchema enforces this).
func (r *Registry) Snapshot() map[string]any {
	stages := map[string]any{}
	for _, s := range r.stagesInOrder() {
		stages[s.Name()] = map[string]any{
			"count":    s.Count(),
			"total_ms": ms(s.Total()),
			"mean_ms":  ms(s.Mean()),
			"min_ms":   ms(s.Min()),
			"max_ms":   ms(s.Max()),
			"p50_ms":   ms(s.Quantile(0.50)),
			"p95_ms":   ms(s.Quantile(0.95)),
			"p99_ms":   ms(s.Quantile(0.99)),
		}
	}
	a := r.Alloc()
	return map[string]any{
		"uptime_ms": ms(time.Since(r.start)),
		"stages":    stages,
		"alloc": map[string]any{
			"alloc_mb":         round2(a.AllocMB),
			"num_gc":           a.NumGC,
			"pool_gets":        a.PoolGets,
			"pool_hits":        a.PoolHits,
			"pool_puts":        a.PoolPuts,
			"pool_hit_rate_pc": round2(a.HitRatePc),
		},
	}
}

// SnapshotJSON renders Snapshot as indented JSON, the exact payload the
// serving layer's /metrics endpoint returns.
func (r *Registry) SnapshotJSON() []byte {
	buf, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		// Snapshot only contains numbers, strings and maps; Marshal cannot
		// fail on it.
		panic("metrics: snapshot marshal: " + err.Error())
	}
	return append(buf, '\n')
}

// Dump renders the registry as a fixed-width text table.
func (r *Registry) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stage                 count   mean-ms    p50-ms    p99-ms    max-ms  total-ms\n")
	for _, s := range r.stagesInOrder() {
		fmt.Fprintf(&b, "%-20s %6d %9.2f %9.2f %9.2f %9.2f %9.1f\n",
			s.Name(), s.Count(), ms(s.Mean()), ms(s.Quantile(0.50)),
			ms(s.Quantile(0.99)), ms(s.Max()), ms(s.Total()))
	}
	a := r.Alloc()
	fmt.Fprintf(&b, "alloc: %.1f MB in %d GCs; image pool: %d gets, %.1f%% recycled, %d puts\n",
		a.AllocMB, a.NumGC, a.PoolGets, a.HitRatePc, a.PoolPuts)
	return b.String()
}

// StageNames returns the registered stage names, sorted.
func (r *Registry) StageNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]string(nil), r.order...)
	sort.Strings(out)
	return out
}

func ms(d time.Duration) float64 { return round2(float64(d) / 1e6) }

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }
