//! The metric tables: names, units, directions and regression bounds — the
//! one place `BENCHMARK.json`, the run, the traced pass and `ledger compare`
//! agree on (a unit test pins `BENCHMARK.json` to these tables).

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The direction as `BENCHMARK.json` spells it.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// the change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these from the untraced run.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("query_p50_ms", "ms", Better::Lower, 0.15),
    e2e("query_p95_ms", "ms", Better::Lower, 0.25),
    e2e("first_row_p50_ms", "ms", Better::Lower, 0.15),
    e2e("throughput_qps", "1/s", Better::Higher, 0.15),
    e2e("write_p50_ms", "ms", Better::Lower, 0.25),
    e2e("write_p95_ms", "ms", Better::Lower, 0.25),
    e2e("ms_over_lftj", "ratio", Better::Lower, 0.15),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
    e2e("recovery_s", "s", Better::Lower, 0.25),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> &'static str {
    end_to_end(name).map(|m| m.unit).unwrap_or_else(|| {
        let layer = PER_LAYER.iter().find(|m| m.0 == name);
        layer.expect("every reported metric is in a table").1
    })
}

/// `(name, unit, better)` of every per-layer metric of the traced pass, in
/// report order.
pub const PER_LAYER: [(&str, &str, Better); 53] = {
    use Better::{Higher, Lower};
    [
        ("server.ping_rtt_us", "us", Lower),
        ("server.parse_request_us", "us", Lower),
        ("server.served_1c_ms", "ms", Lower),
        ("server.body_transfer_ms", "ms", Lower),
        ("server.flushes_per_req", "count", Lower),
        ("server.body_bytes_per_req", "count", Lower),
        ("server.admission_waited", "count", Lower),
        ("render.write_body_self_ms", "ms", Lower),
        ("render.ns_per_row", "ns", Lower),
        ("text.parse_query_us", "us", Lower),
        ("text.load_tsv_ms", "ms", Lower),
        ("engine.prepare_cold_ms", "ms", Lower),
        ("engine.prepare_hit_us", "us", Lower),
        ("engine.exec_overhead_ms", "ms", Lower),
        ("engine.apply_batch_us", "us", Lower),
        ("engine.apply_batch_durable_us", "us", Lower),
        ("core.plan_us", "us", Lower),
        ("core.reindex_ms", "ms", Lower),
        ("core.probe_loop_ms", "ms", Lower),
        ("core.loop_other_ms", "ms", Lower),
        ("core.sort_ms", "ms", Lower),
        ("core.shard_speedup_t2", "ratio", Higher),
        ("core.probes_per_output", "count", Lower),
        ("core.findgap_per_output", "count", Lower),
        ("cds.get_probe_point_ms", "ms", Lower),
        ("cds.get_probe_point_ns_per_call", "ns", Lower),
        ("cds.insert_constraint_ms", "ms", Lower),
        ("cds.insert_ns_per_call", "ns", Lower),
        ("cds.next_calls", "count", Lower),
        ("cds.backtracks", "count", Lower),
        ("cds.next_per_findgap", "ratio", Lower),
        ("cds.nodes", "count", Lower),
        ("storage.find_gap_ms", "ms", Lower),
        ("storage.find_gap_ns_per_call", "ns", Lower),
        ("storage.find_gap_calls", "count", Lower),
        ("storage.merge_find_gap_ns_per_call", "ns", Lower),
        ("storage.dense_find_gap_ns_per_call", "ns", Lower),
        ("storage.sorted_find_gap_ns_per_call", "ns", Lower),
        ("storage.apply_us_per_op", "us", Lower),
        ("storage.compact_ms", "ms", Lower),
        ("storage.build_ms", "ms", Lower),
        ("storage.delta_probes", "count", Lower),
        ("storage.merge_steps", "count", Lower),
        ("durability.log_us_per_record", "us", Lower),
        ("durability.checkpoint_ms", "ms", Lower),
        ("durability.replay_ms", "ms", Lower),
        ("durability.wal_bytes_per_user_byte", "ratio", Lower),
        ("durability.checkpoints", "count", Lower),
        ("durability.replayed_records", "count", Lower),
        ("baselines.lftj_ms", "ms", Lower),
        ("loadgen.late_p95_ms", "ms", Lower),
        ("trace.overhead_ratio", "ratio", Lower),
        ("trace.unattributed_ratio", "ratio", Lower),
    ]
};
