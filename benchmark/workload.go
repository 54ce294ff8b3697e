package main

// sessions is the number of concurrent sessions on the serve workloads: one
// goroutine and one HTTP connection each, no more than the two cores the
// benchmark requires. The offline workloads have one caller.
const sessions = 2

// clipFrames is the length of each session's clip, played ping-pong so that
// motion stays continuous; oracleFrames is how many of a session's first
// frames are checked against the serial ISM oracle and scored against
// ground truth.
const (
	clipFrames   = 32
	oracleFrames = 16
)

// spec is one workload. The reasons are repeated in BENCHMARK.json and
// README.md; the test keeps the three in step.
type spec struct {
	Name    string  `json:"name"`
	Why     string  `json:"why"`
	W       int     `json:"w"`
	H       int     `json:"h"`
	PW      int     `json:"pw"`
	MaxDisp int     `json:"max_disp"`
	Fixed   bool    `json:"fixed"`
	LimitMs float64 `json:"limit_ms"`
	CalExp  float64 `json:"cal_exp"` // how closely the workload follows the host's speed; see hostcal.go

	// Serve workloads only.
	Serve      bool    `json:"serve"`
	RateFPS    float64 `json:"rate_fps_per_session,omitempty"` // paced segment
	SLO        string  `json:"slo,omitempty"`
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	Upload     string  `json:"upload,omitempty"` // "pgm" or "pfm" (raw, misaligned)
	Query      string  `json:"query,omitempty"`  // reply format
	Cluster    bool    `json:"cluster,omitempty"`
}

var specs = []spec{
	{
		Name: "offline_key", W: 160, H: 96, PW: 1, MaxDisp: 32, LimitMs: 66.7, CalExp: calExp,
		Why: "In-process PW-1 float SGM at 160x96: every frame is a key frame, so stereo does all the work and flow/core none.",
	},
	{
		Name: "offline_ism", W: 192, H: 120, PW: 4, MaxDisp: 40, LimitMs: 110, CalExp: calExp,
		Why: "In-process PW-4 float SGM + Farneback/2 + float refine at 192x120: the paper's operating point, cost volumes past L2; flow+core do most of the work.",
	},
	{
		Name: "offline_fixed", W: 192, H: 120, PW: 4, MaxDisp: 40, Fixed: true, LimitMs: 110, CalExp: calExp,
		Why: "offline_ism through the fixed-point SGM and refine kernels: a float-kernel gain that costs the fixed path shows here.",
	},
	{
		Name: "serve_gold", W: 160, H: 96, PW: 4, MaxDisp: 32, LimitMs: 66.7, CalExp: calExp,
		Serve: true, RateFPS: 12, SLO: "gold", Upload: "pgm",
		Why: "serve.Server over loopback HTTP, 2 gold sessions, PGM upload, JSON reply, paced 12 fps/session: the serving path with compute dominant.",
	},
	{
		Name: "serve_floor", W: 160, H: 96, PW: 4, MaxDisp: 32, LimitMs: 33.3, CalExp: calExpWaiting,
		Serve: true, RateFPS: 24, SLO: "besteffort", DeadlineMs: 1, Upload: "pgm", Query: "?disparity=pfm",
		Why: "Same server, 2 best-effort sessions pinned to the bottom rung by an unmeetable 1 ms deadline, PFM reply, 24 fps/session: transport, codec and pyramid dominate, the kernels are almost absent.",
	},
	{
		Name: "cluster_cloud_ckpt", W: 160, H: 96, PW: 4, MaxDisp: 32, LimitMs: 100, CalExp: calExp,
		Serve: true, RateFPS: 10, SLO: "gold", Upload: "pfm", Query: "?cloud=bin", Cluster: true,
		Why: "cluster.Gateway over 2 shards with a shared spill dir, checkpoint before every reply, raw PFM uploads, cloud reply, 10 fps/session: rectify, perception, snapshot writes and the gateway hop.",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metricDef mirrors one BENCHMARK.json metric entry. Bound is the share of
// the other run's value by which a metric may be worse before -compare
// marks it; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, the same names on
// every workload. failed_frac is carried by the result's attempted/failed
// counts instead of a metric, because a bounded metric may never read 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_fps", "frames/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"within_limit_frac", "ratio", "higher", 0.1},
	{"bad3_pct", "%", "lower", 0.08},
	{"cpu_ms_per_frame", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the traced run's metrics, named module.metric. A metric that
// does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{Name: "stereo.keymatch_ms", Unit: "ms", Better: "lower"},
	{Name: "stereo.keymatch_ns_per_px_disp", Unit: "ns", Better: "lower"},
	{Name: "stereo.refine_ms", Unit: "ms", Better: "lower"},
	{Name: "flow.pair_ms", Unit: "ms", Better: "lower"},
	{Name: "flow.single_ms", Unit: "ms", Better: "lower"},
	{Name: "flow.ns_per_px", Unit: "ns", Better: "lower"},
	{Name: "core.nonkey_commit_ms", Unit: "ms", Better: "lower"},
	{Name: "core.propagate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.key_frames", Unit: "count", Better: "lower"},
	{Name: "core.nonkey_frames", Unit: "count", Better: "higher"},
	{Name: "core.nonkey_key_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.mmacs_per_frame", Unit: "MMAC", Better: "lower"},
	{Name: "core.ns_per_mac_key", Unit: "ns", Better: "lower"},
	{Name: "core.ns_per_mac_nonkey", Unit: "ns", Better: "lower"},
	{Name: "pipeline.stream_fps", Unit: "frames/s", Better: "higher"},
	{Name: "pipeline.stream_speedup_x", Unit: "ratio", Better: "higher"},
	{Name: "imgproc.decode_pgm_ms", Unit: "ms", Better: "lower"},
	{Name: "imgproc.decode_pfm_ms", Unit: "ms", Better: "lower"},
	{Name: "imgproc.pool_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "rectify.pair_ms", Unit: "ms", Better: "lower"},
	{Name: "perception.reproject_ms", Unit: "ms", Better: "lower"},
	{Name: "perception.encode_cloud_ms", Unit: "ms", Better: "lower"},
	{Name: "perception.cloud_points", Unit: "count", Better: "higher"},
	{Name: "quality.step_ms", Unit: "ms", Better: "lower"},
	{Name: "quality.pyramid_ms", Unit: "ms", Better: "lower"},
	{Name: "quality.bottom_rung_frac", Unit: "ratio", Better: "higher"},
	{Name: "quality.degraded_frac", Unit: "ratio", Better: "higher"},
	{Name: "serve.queue_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.compute_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.keymatch_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.flow_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.refine_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.rectify_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_mean_frames", Unit: "count", Better: "higher"},
	{Name: "serve.batch_max_frames", Unit: "count", Better: "higher"},
	{Name: "serve.rejected_429", Unit: "count", Better: "lower"},
	{Name: "serve.checkpoints", Unit: "count", Better: "higher"},
	{Name: "serve.spill_errors", Unit: "count", Better: "lower"},
	{Name: "serve.snapshot_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.snapshot_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.upload_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.reply_bytes", Unit: "B", Better: "lower"},
	{Name: "cluster.hop_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "cluster.proxy_errors", Unit: "count", Better: "lower"},
	{Name: "gen.late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.alloc_kb_per_frame", Unit: "KB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.frame_cover_frac", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "host.calib_ms", Unit: "ms", Better: "lower"},
}
