package main

import "repro/internal/ce"

// declared is one metric named in BENCHMARK.json.
type declared struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. Every workload prints
// all of them; cpu_ms_per_op refers to the workload's headline operation
// (README.md, "End-to-end metrics").
var endToEnd = []declared{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
}

// servable lists the registry models /train accepts (every non-composite
// model), in registry order; the online workloads rotate through them.
var servable = func() []string {
	var out []string
	for _, s := range ce.Specs() {
		if s.Kind != ce.Composite {
			out = append(out, s.Name)
		}
	}
	return out
}()

// perLayer lists the metrics of a traced run, in print order.
var perLayer = func() []declared {
	var out []declared
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, declared{n, unit})
		}
	}
	// advisor-build
	for _, m := range ce.Names() {
		add("s", "ce.fit_s."+m, "ce.estimate_s."+m)
	}
	add("s", "testbed.finish_s", "testbed.prepare_s", "engine.oracle_s", "feature.extract_s",
		"core.dml_s", "core.il_s", "core.save_s", "core.load_s", "build.unaccounted_s", "build.traced_s")
	add("count", "engine.oracle_queries", "core.rcs_size")
	add("bytes", "core.artifact_bytes")
	add("us", "core.recommend_us")
	add("MB", "ce.fit_alloc_mb", "ce.estimate_alloc_mb")
	// estimate-serve
	add("ms", "serve.healthz_p50_ms")
	for _, m := range servable {
		add("ms", "serve.estimate_idle_p50_ms."+m)
		add("us", "serve.per_query_us."+m)
	}
	add("us", "client.cpu_us_per_req")
	add("count", "serve.refused", "serve.cache_cold_loads")
	// tenant-churn
	add("ms", "serve.onboard_ms_per_mrow", "feature.extract_ms_per_mrow", "testbed.train_input_ms")
	for _, m := range servable {
		add("ms", "serve.train_p50_ms."+m, "ce.fit_ms."+m, "ce.load_ms."+m)
	}
	add("ratio", "serve.cold_load_share")
	add("count", "serve.store_saves", "serve.store_loads", "serve.cache_writebacks")
	add("bytes", "serve.store_save_bytes", "serve.store_load_bytes")
	// shared by the online workloads; latency of the headline operation
	// and the tracing overhead of all
	add("count", "serve.cache_evictions")
	add("us", "serve.cpu_us_per_req")
	add("ms", "client.lateness_p99_ms", "op.p50_ms", "trace.overhead_ms")
	add("ratio", "error_share")
	return out
}()
