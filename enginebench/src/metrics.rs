//! The metric catalogue: every name the benchmark prints, with its unit.
//!
//! What each metric means, which layer it belongs to and which
//! end-to-end metric it should move is documented in this directory's
//! README. `BENCHMARK.json` lists the same names and units; a test holds
//! the two together.

use ratel_sim::ResourceClass;
use ratel_storage::Route;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("tokens_per_s", "tok/s"),
    ("step_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ssd_read_bytes_per_step", "bytes"),
    ("ssd_write_bytes_per_step", "bytes"),
    ("pcie_bytes_per_step", "bytes"),
    ("passed_step_ratio", "ratio"),
];

/// Executor pools by metric suffix.
pub const POOLS: [(&str, ResourceClass); 5] = [
    ("gpu", ResourceClass::GpuCompute),
    ("cpu", ResourceClass::CpuCompute),
    ("pcie_g2m", ResourceClass::PcieG2M),
    ("pcie_m2g", ResourceClass::PcieM2G),
    ("ssd", ResourceClass::SsdArray),
];

/// Store routes by metric suffix.
pub const ROUTES: [(&str, Route); 4] = [
    ("g2h", Route::GpuToHost),
    ("h2g", Route::HostToGpu),
    ("h2s", Route::HostToSsd),
    ("s2h", Route::SsdToHost),
];

/// Per-layer metrics, printed with `--trace 1`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    add("executor.wall_s", "s");
    add("executor.critical_path_s", "s");
    add("executor.slack_s", "s");
    add("executor.tasks_per_step", "count");
    for (pool, _) in POOLS {
        add(&format!("executor.busy_s.{pool}"), "s");
        add(&format!("executor.util.{pool}"), "ratio");
    }
    add("executor.noop_run_s", "s");
    add("tensor.block_fwd_s", "s");
    add("tensor.block_bwd_s", "s");
    add("tensor.gemm_gflops", "GFLOP/s");
    add("tensor.attn_fwd_s", "s");
    add("tensor.attn_bwd_s", "s");
    add("tensor.adam_elems_per_s", "elems/s");
    for codec in ["f16_decode", "f16_encode", "f32_decode", "f32_encode"] {
        add(&format!("tensor.{codec}_gbps"), "GB/s");
    }
    add("engine.gpu_gflops", "GFLOP/s");
    add("engine.gpu_efficiency", "ratio");
    add("engine.cpu_params_per_s", "params/s");
    add("engine.cpu_efficiency", "ratio");
    add("engine.ssd_gbps", "GB/s");
    add("engine.ssd_efficiency", "ratio");
    add("storage.ssd_put_gbps", "GB/s");
    add("storage.ssd_read_gbps", "GB/s");
    add("storage.host_move_gbps", "GB/s");
    for (route, _) in ROUTES {
        add(&format!("storage.bytes.{route}"), "bytes");
    }
    for counter in ["retries", "give_ups", "host_spills"] {
        add(&format!("storage.{counter}"), "count");
    }
    add("api.plan_s", "s");
    add("api.build_s", "s");
    add("planner.profile_plan_s", "s");
    add("planner.decisions_match", "count");
    for stage in ["forward", "backward", "optimizer", "transfer", "prefetch"] {
        add(&format!("stage.{stage}_s"), "s");
    }
    add("stage.optimizer_overlap_ratio", "ratio");
    for (route, _) in ROUTES {
        add(&format!("storage.{route}.ops"), "count");
        add(&format!("storage.{route}.mean_op_s"), "s");
        add(&format!("storage.{route}.gbps"), "GB/s");
    }
    add("trace.overhead_ratio", "ratio");
    m
}

/// The unit of a metric the benchmark prints, `None` for an unknown name.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .or_else(|| {
            per_layer()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
}

/// Renders a finite metric value as a JSON number with every digit it
/// has. Non-finite values have no JSON form and are never printed.
pub fn json_number(v: f64) -> String {
    debug_assert!(v.is_finite(), "{v} has no JSON form");
    format!("{v:?}")
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, at most 64
    /// characters, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn all() -> Vec<(String, &'static str)> {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(per_layer())
            .collect()
    }

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut seen = HashSet::new();
        for (name, unit) in all() {
            assert!(valid_name(&name), "bad metric name {name:?}");
            assert!(seen.insert(name.clone()), "duplicate metric {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?} of {name}"
            );
            assert_eq!(unit_of(&name), Some(unit));
        }
        assert!(!valid_name("a b"));
        assert!(!valid_name("_lead"));
        assert!(!valid_name(""));
        assert!(!valid_name("busy{gpu}"));
    }

    #[test]
    fn benchmark_manifest_lists_every_metric_with_its_unit() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in all() {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = manifest.matches("\"unit\":").count();
        assert_eq!(listed, all().len(), "BENCHMARK.json lists other metrics");
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(1.2034567891), "1.2034567891");
        assert_eq!(json_number(1024.0), "1024.0");
        assert_eq!(json_number(2.5e-7), "2.5e-7");
        assert_eq!(json_string("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
