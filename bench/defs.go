package main

// metricDef names a metric and its unit. BENCHMARK.json carries the
// same two lists (with direction, bound and the prediction each layer
// metric encodes); a test holds the file and these tables together.
type metricDef struct {
	name, unit   string
	higherBetter bool
	bound        float64 // end-to-end only: share of the median it may worsen by
}

// endToEnd is what a user of the system sees; an untraced run reports
// exactly these.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "ops_per_sec", unit: "1/s", higherBetter: true, bound: 0.25},
	{name: "latency_p50_us", unit: "us", bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", bound: 0.25},
	{name: "allocs_per_op", unit: "count", bound: 0.02},
	{name: "alloc_bytes_per_op", unit: "B", bound: 0.15},
	{name: "heap_live_mb", unit: "MB", bound: 0.10},
}

// perLayer is what each layer presents at its own port; a traced run
// reports exactly these. A metric whose layer is off the workload's
// path reads 0, which is the bypass prediction made visible.
var perLayer = []metricDef{
	{name: "sig.encode_ns_per_env", unit: "ns"},
	{name: "sig.decode_ns_per_env", unit: "ns"},
	{name: "sig.allocs_per_env", unit: "count"},
	{name: "sig.wire_bytes_per_op", unit: "B"},

	{name: "slot.ns_per_signal", unit: "ns"},
	{name: "slot.signals_per_op", unit: "count"},

	{name: "core.goal_ns_per_event", unit: "ns"},

	{name: "box.handle_ns_per_event", unit: "ns"},
	{name: "box.events_per_op", unit: "count"},
	{name: "box.allocs_per_event", unit: "count"},
	{name: "box.inbox_depth_hwm", unit: "count"},
	{name: "box.hop_us_p50", unit: "us"},
	{name: "box.goroutines_peak", unit: "count"},

	{name: "transport.hop_us_p50", unit: "us"},
	{name: "transport.send_ns_p50", unit: "ns"},
	{name: "transport.dial_us_p50", unit: "us"},
	{name: "transport.envelopes_per_op", unit: "count"},
	{name: "transport.queue_depth_hwm", unit: "count"},
	{name: "transport.send_queue_depth_hwm", unit: "count"},
	{name: "transport.retransmits", unit: "count"},
	{name: "transport.reconnects", unit: "count"},
	{name: "transport.mux_drops", unit: "count"},
	{name: "transport.backlog_dropped", unit: "count"},
	{name: "transport.ring_pipe_ns", unit: "ns"},
	{name: "transport.mem_pipe_ns", unit: "ns"},
	{name: "transport.tcp_rtt_us", unit: "us"},
	{name: "transport.rel_send_ns", unit: "ns"},
	{name: "transport.mux_send_ns", unit: "ns"},

	{name: "timerwheel.schedule_ns", unit: "ns"},
	{name: "timerwheel.stop_ns", unit: "ns"},
	{name: "timerwheel.fire_lag_us_p50", unit: "us"},
	{name: "timerwheel.pending_hwm", unit: "count"},

	{name: "store.lookup_ns_p50", unit: "ns"},
	{name: "store.append_cdr_ns_p50", unit: "ns"},
	{name: "store.lookups_per_op", unit: "count"},
	{name: "store.lookup_miss", unit: "count"},
	{name: "store.fsyncs_per_1k_cdr", unit: "count"},
	{name: "store.acked_ratio", unit: "ratio"},

	{name: "media.stage_ns_per_pkt", unit: "ns"},
	{name: "media.deliver_ns_per_pkt", unit: "ns"},
	{name: "media.round_us_p50", unit: "us"},
	{name: "media.lost_ratio", unit: "ratio"},
	{name: "media.clipped", unit: "count"},
	{name: "media.decode_errors", unit: "count"},

	{name: "ts.mux_ns_per_burst", unit: "ns"},
	{name: "ts.demux_ns_per_burst", unit: "ns"},
	{name: "ts.crc_errors", unit: "count"},
	{name: "ts.cc_discontinuities", unit: "count"},
	{name: "ts.framing_errors", unit: "count"},

	{name: "telemetry.counter_inc_ns", unit: "ns"},
	{name: "telemetry.hist_observe_ns", unit: "ns"},

	{name: "runtime.gc_per_sec", unit: "1/s"},
	{name: "runtime.gc_cpu_fraction", unit: "ratio"},
	{name: "runtime.sched_latency_p50_us", unit: "us"},

	{name: "load.gen_lag_p99_us", unit: "us"},
	{name: "load.latency_p99_us", unit: "us"},
	{name: "load.slice_iqr_ratio", unit: "ratio"},
	{name: "load.host_calib_ms", unit: "ms"},
	{name: "load.host_drift_ratio", unit: "ratio"},
	{name: "load.trace_overhead_ratio", unit: "ratio"},
	{name: "load.span_tile_ratio", unit: "ratio"},
	{name: "load.cpu_busy_ratio", unit: "ratio"},
}
