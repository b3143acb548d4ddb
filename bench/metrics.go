package main

// The metric dictionary. BENCHMARK.json declares the same names, units,
// directions and bounds; the contract test holds the two in step.

// metricDef declares one metric.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening as a share of the median
}

// e2eDefs are the end-to-end metrics every untraced run reports.
var e2eDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"frames_per_s", "1/s", "higher", 0.25},
	{"requests_per_s", "1/s", "higher", 0.25},
	{"request_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_frame", "ms", "lower", 0.25},
	{"allocs_per_frame", "count", "lower", 0.15},
	{"max_rss_mb", "MiB", "lower", 0.25},
}

// layerDefs are the per-layer metrics every traced run reports.
var layerDefs = []metricDef{
	{name: "sim.capture_us_per_sample", unit: "us", better: "lower"},
	{name: "nulling.null_ms", unit: "ms", better: "lower"},
	{name: "nulling.soundings", unit: "count", better: "lower"},
	{name: "ofdm.combine_us_per_sample", unit: "us", better: "lower"},
	{name: "isar.image_ms_per_frame", unit: "ms", better: "lower"},
	{name: "isar.image_fanout_speedup", unit: "ratio", better: "higher"},
	{name: "isar.stream_ms_per_frame", unit: "ms", better: "lower"},
	{name: "core.ttff_ms", unit: "ms", better: "lower"},
	{name: "isar.assemble_ms_per_request", unit: "ms", better: "lower"},
	{name: "isar.cov_us_per_frame", unit: "us", better: "lower"},
	{name: "cmath.eig_us_per_frame", unit: "us", better: "lower"},
	{name: "isar.bartlett_us_per_frame", unit: "us", better: "lower"},
	{name: "isar.signal_dim_mean", unit: "count", better: "lower"},
	{name: "cmath.eigvec_used_frac", unit: "ratio", better: "higher"},
	{name: "gesture.decode_ms", unit: "ms", better: "lower"},
	{name: "ledger.chain_unattributed_frac", unit: "ratio", better: "lower"},
	{name: "loadgen.send_delay_ms_p95", unit: "ms", better: "lower"},
	{name: "pipeline.queue_wait_ms_p50", unit: "ms", better: "lower"},
	{name: "pipeline.queue_wait_ms_p95", unit: "ms", better: "lower"},
	{name: "pipeline.busy_frac", unit: "ratio", better: "lower"},
	{name: "pipeline.e2e_ms_p95", unit: "ms", better: "lower"},
	{name: "pool.rejected", unit: "count", better: "lower"},
	{name: "pool.device_build_ms", unit: "ms", better: "lower"},
	{name: "serve.handler_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.handler_ms_p95", unit: "ms", better: "lower"},
	{name: "http.wire_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.write_us_per_frame", unit: "us", better: "lower"},
	{name: "serve.flush_us_per_frame", unit: "us", better: "lower"},
	{name: "serve.bytes_per_frame", unit: "bytes", better: "lower"},
	{name: "serve.encode_us_per_frame", unit: "us", better: "lower"},
	{name: "serve.client_decode_us_per_frame", unit: "us", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches each declared metric's unit to its value; it
// reports the declared names missing from values.
func withUnits(defs []metricDef, values map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, missing
}

// e2eDef finds an end-to-end metric's declaration by name.
func e2eDef(name string) metricDef {
	for _, d := range e2eDefs {
		if d.name == name {
			return d
		}
	}
	panic("bench: undeclared end-to-end metric " + name)
}

// worsening is how much worse b is than a as a share of a, in the
// metric's direction: positive when b is worse.
func (d metricDef) worsening(a, b float64) float64 {
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
