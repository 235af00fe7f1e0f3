//! The metric names, units and directions, in the order they are printed.
//! `BENCHMARK.json` carries the same lists; a test keeps the two in step.

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "higher",
    }
}

/// Defined, and never zero, on every workload. What an operation is on each
/// workload is in README.md. A unit with `ref_` in it is reference time
/// (`clock.rs`), not wall time; so is `setup_s`, whose unit the benchmark
/// contract fixes.
pub const END_TO_END: &[Def] = &[
    higher("ops_per_s", "1/ref_s"),
    lower("op_p50_ms", "ref_ms"),
    lower("peak_rss_mb", "MB"),
    lower("setup_s", "s"),
];

/// From the traced run. A metric of a layer a workload does not run is
/// listed as `n/a` and written as 0 in the result object.
pub const PER_LAYER: &[Def] = &[
    // What a user of one workload sees beyond the common three.
    lower("deploy_p50_ms", "ref_ms"),
    lower("deploy_p95_ms", "ref_ms"),
    lower("decision_p50_ms", "ref_ms"),
    lower("decision_p95_ms", "ref_ms"),
    lower("valuation_s", "ref_s"),
    lower("valuation_par_s", "ref_s"),
    lower("deadline_miss_pct", "%"),
    lower("cost_regret_pct", "%"),
    lower("pred_mape_pct", "%"),
    // disar-core: Algorithm 1.
    lower("core.select_busy_s", "s"),
    higher("core.select_calls", "count"),
    higher("core.select_cells", "count"),
    lower("core.select_ns_per_cell", "ref_ns"),
    higher("core.select_feasible_share", "share"),
    lower("core.select_explored_share", "share"),
    lower("core.predict_grid_ns_per_cell", "ns"),
    // disar-core: feedback and retraining.
    lower("core.record_busy_s", "s"),
    higher("core.record_calls", "count"),
    lower("core.retrain_calls", "count"),
    lower("core.retrain_probe_full_ms", "ms"),
    lower("core.retrain_probe_incremental_ms", "ms"),
    // disar-ml.
    lower("ml.fit_ms.mlp", "ms"),
    lower("ml.fit_ms.rt", "ms"),
    lower("ml.fit_ms.rf", "ms"),
    lower("ml.fit_ms.ibk", "ms"),
    lower("ml.fit_ms.kstar", "ms"),
    lower("ml.fit_ms.dt", "ms"),
    lower("ml.predict_batch_ns_per_row.mlp", "ns"),
    lower("ml.predict_batch_ns_per_row.rt", "ns"),
    lower("ml.predict_batch_ns_per_row.rf", "ns"),
    lower("ml.predict_batch_ns_per_row.ibk", "ns"),
    lower("ml.predict_batch_ns_per_row.kstar", "ns"),
    lower("ml.predict_batch_ns_per_row.dt", "ns"),
    lower("ml.partial_fit_us.ibk", "us"),
    lower("ml.partial_fit_us.kstar", "us"),
    higher("ml.kb_rows", "count"),
    // disar-cloudsim.
    lower("cloudsim.run_job_busy_s", "s"),
    higher("cloudsim.run_job_calls", "count"),
    lower("cloudsim.run_job_us", "ref_us"),
    lower("cloudsim.sim_secs_total", "s"),
    // The valuation stack.
    lower("stochastic.generate_ns_per_path_step", "ns"),
    higher("stochastic.path_steps", "count"),
    lower("math.normal_fill_ns_per_sample", "ns"),
    lower("actuarial.schedule_us_per_model_point", "us"),
    lower("alm.nested_ns_per_inner_path", "ns"),
    higher("alm.inner_paths", "count"),
    lower("engine.run_local_busy_s", "s"),
    lower("engine.decompose_ms", "ms"),
    higher("engine.eebs_type_b", "count"),
    higher("engine.scaling_eff_2t", "share"),
    higher("engine.threads_bitwise_equal", "count"),
    // disar-math: what a fan-out costs before it does any work.
    lower("math.parallel_map_spawn_us.48", "us"),
    lower("math.parallel_map_spawn_us.384", "us"),
    // disar-core: the concurrent service.
    lower("core.service_ingest_batches", "count"),
    higher("core.service_records_per_batch", "count"),
    lower("core.service_retrains", "count"),
    lower("core.service_max_queue_depth", "count"),
    lower("core.service_rejected", "count"),
    lower("core.service_snapshot_generation", "count"),
    higher("core.pipeline_overlap_share", "share"),
    higher("core.pipeline_mean_in_flight", "count"),
    // The machine and the trace themselves.
    lower("machine.slowdown", "ratio"),
    lower("trace.overhead_pct", "%"),
    higher("trace.children_share_of_deploy", "share"),
    higher("trace.select_share_of_deploy", "share"),
    higher("trace.record_share_of_deploy", "share"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly these metrics, with these units and
    /// directions, and nothing else under `end_to_end` and `per_layer`.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                def.name, def.unit, def.better
            );
            assert!(json.contains(&entry), "missing or different: {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
