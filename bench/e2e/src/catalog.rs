//! The names `BENCHMARK.json` promises: workloads, end-to-end metrics and
//! per-layer metrics. A test holds this file and `BENCHMARK.json` together.

use crate::json::Metric;

pub const WORKLOADS: [&str; 4] = ["cf_native", "dispatch_tiny", "serve_mixed", "sim_sweep"];

#[cfg(test)]
pub const END_TO_END: [(&str, &str); 5] = [
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric, with its unit. A traced run reports all of them:
/// a workload whose path does not cross a layer reports that layer's
/// metrics as 0 (the driver's contract wants every name on every run).
pub const PER_LAYER: [(&str, &str); 63] = [
    // every workload
    ("op_ms_p99", "ms"),
    ("trace_overhead_frac", "ratio"),
    ("dark_frac", "ratio"),
    ("failed_frac", "ratio"),
    ("hstreams.actions_per_op", "count"),
    ("hstreams.bytes_per_op", "B"),
    ("alloc.count_per_op", "count"),
    ("alloc.kb_per_op", "KiB"),
    ("host.ref_loop_us_p50", "us"),
    ("host.steal_frac", "ratio"),
    ("host.idle_frac", "ratio"),
    ("host.slice_spread", "ratio"),
    // cf_native, dispatch_tiny (apps.record_us_p50: sim_sweep too)
    ("apps.record_us_p50", "us"),
    ("hstreams.check.analyze_us_p50", "us"),
    ("hstreams.native.run_us_p50", "us"),
    ("hstreams.native.launch_overhead_us_p50", "us"),
    ("hstreams.native.queue_wait_us_p50", "us"),
    ("hstreams.native.overhead_us_per_action", "us"),
    ("hstreams.native.small_xfer_us_p50", "us"),
    ("hstreams.native.kernel_us_per_op", "us"),
    ("apps.kernel_gflops", "GFLOP/s"),
    ("apps.kernel_peak_frac", "ratio"),
    ("hstreams.native.copy_us_per_op", "us"),
    ("hstreams.native.copy_gbs", "GB/s"),
    ("hstreams.native.copy_peak_frac", "ratio"),
    ("apps.transfer_frac_R", "ratio"),
    ("hstreams.sim.hidden_frac", "ratio"),
    ("hstreams.native.partition_idle_frac", "ratio"),
    ("hstreams.readback_us_p50", "us"),
    ("host.peak_gflops", "GFLOP/s"),
    ("host.memcpy_gbs", "GB/s"),
    // serve_mixed
    ("serve.capture_us_p50", "us"),
    ("serve.clone_us_p50", "us"),
    ("serve.submit_us_p50", "us"),
    ("serve.round_us_p50", "us"),
    ("serve.execute_us_p50", "us"),
    ("serve.round_overhead_us_p50", "us"),
    ("serve.relocate_merge_us_p50", "us"),
    ("serve.recheck_us_p50", "us"),
    ("serve.reopt_us_p50", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.batch_tenants_mean", "count"),
    ("serve.rounds_per_cycle", "count"),
    ("serve.syncs_elided_per_round", "count"),
    ("serve.shed_frac", "ratio"),
    ("serve.degraded_frac", "ratio"),
    ("serve.jain_fairness", "ratio"),
    ("serve.clock_gap_frac", "ratio"),
    // sim_sweep
    ("tune.candidates_per_sweep", "count"),
    ("tune.evaluator_calls", "count"),
    ("tune.cache_hit_frac", "ratio"),
    ("micsim.tasks_per_sweep", "count"),
    ("micsim.tasks_per_s", "1/s"),
    ("hstreams.replan_us_p50", "us"),
    ("hstreams.sim.run_us_p50", "us"),
    ("hstreams.opt.static_cost_us_p50", "us"),
    ("hstreams.sched.plan_us_p50", "us"),
    ("sim.makespan_ms.hbench", "simulated_ms"),
    ("sim.makespan_ms.mm", "simulated_ms"),
    ("sim.makespan_ms.cf", "simulated_ms"),
    ("sim.makespan_ms.nn", "simulated_ms"),
    ("sim.makespan_ms.kmeans", "simulated_ms"),
    ("sim_makespan_ms", "simulated_ms"),
];

/// Put a traced run's metrics in catalog order and add, as 0, every
/// per-layer metric the workload's path does not cross.
///
/// # Panics
/// On a metric outside the catalog or with another unit: a bug in the
/// benchmark, caught by the first traced run of the workload.
pub fn complete_per_layer(measured: Vec<Metric>) -> Vec<Metric> {
    for m in &measured {
        assert!(
            PER_LAYER.contains(&(m.name.as_str(), m.unit)),
            "{} [{}] is not in the per-layer catalog",
            m.name,
            m.unit
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            value: measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value),
            unit,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

    /// The text of the top-level array `"key": [ ... ]`.
    fn section(key: &str) -> &'static str {
        let start = BENCHMARK_JSON
            .find(&format!("\"{key}\": ["))
            .unwrap_or_else(|| panic!("{key} missing"));
        let rest = &BENCHMARK_JSON[start..];
        let end = rest
            .find("\n  ]")
            .unwrap_or_else(|| panic!("{key} unterminated"));
        &rest[..end]
    }

    fn names_in(section: &str) -> Vec<&str> {
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        assert_eq!(names_in(section("workloads")), WORKLOADS);
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names_in(section("end_to_end")), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names_in(section("per_layer")), layers);
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                BENCHMARK_JSON.contains(&entry),
                "{entry} not in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(*name), "{name} used twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn completion_orders_and_fills() {
        let m = |name: &str, value, unit| Metric {
            name: name.to_string(),
            value,
            unit,
        };
        let out = complete_per_layer(vec![
            m("dark_frac", 0.01, "ratio"),
            m("op_ms_p99", 2.5, "ms"),
        ]);
        assert_eq!(out.len(), PER_LAYER.len());
        assert_eq!((out[0].name.as_str(), out[0].value), ("op_ms_p99", 2.5));
        assert_eq!((out[2].name.as_str(), out[2].value), ("dark_frac", 0.01));
        assert!(out
            .iter()
            .enumerate()
            .all(|(i, m)| i == 0 || i == 2 || m.value == 0.0));
    }

    #[test]
    #[should_panic(expected = "not in the per-layer catalog")]
    fn completion_refuses_unknown_metrics() {
        complete_per_layer(vec![Metric {
            name: "made.up".into(),
            value: 1.0,
            unit: "us",
        }]);
    }
}
