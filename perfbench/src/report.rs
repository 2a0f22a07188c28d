//! Metric names, units and directions, the end-to-end metric each
//! layer metric should move, and the result line.

use std::fmt::Write as _;

use empi_nas::Kernel;

use crate::probes::{AEAD_LIBS, AEAD_SIZES};
use crate::workload::Config;

/// One metric as declared in `BENCHMARK.json`.
#[derive(Debug, PartialEq)]
pub struct Spec {
    pub name: String,
    pub unit: &'static str,
    /// `true` when lower is better.
    pub lower: bool,
}

fn spec(name: impl Into<String>, unit: &'static str, lower: bool) -> Spec {
    Spec {
        name: name.into(),
        unit,
        lower,
    }
}

/// End-to-end metrics, printed with `--trace 0`. Virtual times carry
/// the unit `virtual_s`: they are the modelled cluster's clock, exact
/// and identical on every run, not host seconds.
pub fn end_to_end() -> Vec<Spec> {
    let mut v = vec![spec("setup_s", "s", true)];
    for c in Config::ALL {
        v.push(spec(format!("wall_{}_s", c.name()), "s", true));
    }
    for c in Config::ALL {
        v.push(spec(format!("vt_{}_s", c.name()), "virtual_s", true));
    }
    v.push(spec("vt_overhead_pct", "%", true));
    v.push(spec("vt_tuned_overhead_pct", "%", true));
    v.push(spec("ok_ratio", "ratio", false));
    v.push(spec("peak_rss_mb", "MB", true));
    v
}

/// Per-layer metrics, printed with `--trace 1`. Metrics of a layer a
/// workload does not exercise read 0 on that workload.
pub fn per_layer() -> Vec<Spec> {
    let rows = Config::ALL.map(Config::name);
    let mut v = Vec::new();
    for (m, unit) in [
        ("engine.yields", "count"),
        ("engine.ns_per_yield", "ns"),
        ("engine.user_s", "s"),
        ("engine.sys_s", "s"),
    ] {
        v.extend(rows.iter().map(|r| spec(format!("{m}.{r}"), unit, true)));
    }
    v.push(spec("engine.handoff_ns", "ns", true));
    v.push(spec("engine.yield_ns", "ns", true));
    for (m, unit) in [("fabric.msgs", "count"), ("fabric.bytes", "B")] {
        v.extend(rows.iter().map(|r| spec(format!("{m}.{r}"), unit, true)));
    }
    v.extend([
        spec("mpi.op_us_p50", "us", true),
        spec("mpi.op_us_p99", "us", true),
        spec("mpi.op_tail_pct", "%", false),
        spec("mpi.op_samples", "count", false),
        spec("mpi.vt_wire_us", "virtual_us", true),
        spec("mpi.vt_wait_us", "virtual_us", true),
        spec("securecomm.op_us_p50", "us", true),
        spec("securecomm.op_us_p99", "us", true),
        spec("securecomm.tuned_op_us_p50", "us", true),
        spec("securecomm.tuned_op_us_p99", "us", true),
        spec("securecomm.tax_us_p50", "us", true),
        spec("securecomm.vt_crypto_us", "virtual_us", true),
        spec("securecomm.seals", "count", true),
        spec("securecomm.opens", "count", true),
    ]);
    for (_, lib) in AEAD_LIBS {
        for op in ["seal", "open"] {
            for (_, size) in AEAD_SIZES {
                v.push(spec(
                    format!("aead.{lib}.{op}_ns_per_byte.{size}"),
                    "ns/B",
                    true,
                ));
            }
        }
    }
    v.extend([
        spec("aead.bytes", "B", true),
        spec("aead.est_share", "ratio", true),
        spec("aead.tuned_bytes", "B", true),
        spec("aead.tuned_est_share", "ratio", true),
        spec("pool.take_ns", "ns", true),
        spec("pool.reclaim_ns", "ns", true),
        spec("pool.hit_ratio", "ratio", false),
        spec("pool.fresh_per_msg", "1/msg", true),
        spec("pipeline.chunks", "count", true),
        spec("pipeline.vt_crypto_us", "virtual_us", true),
        spec("pipeline.vt_exposed_crypto_us", "virtual_us", true),
        spec("keys.handshake_s", "s", true),
        spec("keys.handshake_msgs", "count", true),
    ]);
    for m in ["nas.compute_s", "nas.comm_s"] {
        v.extend(rows.iter().map(|r| spec(format!("{m}.{r}"), "s", true)));
    }
    for k in Kernel::ALL {
        let k = k.name().to_lowercase();
        v.extend(
            rows.iter()
                .map(|r| spec(format!("nas.{k}.wall_s.{r}"), "s", true)),
        );
    }
    v.push(spec("trace.overhead_pct", "%", true));
    v.push(spec("fail_ratio", "ratio", true));
    v
}

/// The end-to-end metric a layer metric should move, on which workload,
/// and where it should not move.
pub fn moves(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or("") {
        "engine" => "wall_plain_s, wall_paper_s on p2p-small and coll-64; little on p2p-bulk",
        "fabric" => "vt_* on coll-64 (e.g. bcast header bytes)",
        "mpi" => "wall_plain_s on every workload; vt_plain_s on coll-64",
        "securecomm" => "wall_paper_s on p2p-small; vt_overhead_pct only when the protocol changes",
        "aead" => "wall_paper_s, wall_tuned_s on p2p-bulk; no move on p2p-small",
        "pool" => "wall_tuned_s on p2p-bulk; nothing on plain rows",
        "pipeline" => {
            "vt_tuned_overhead_pct on p2p-bulk, coll-64 (1 MB bcast) and nas; zero on p2p-small"
        }
        "keys" => "setup_s on coll-64 and nas",
        "nas" => "wall_* on nas only",
        "trace" => "no end-to-end metric (end-to-end runs are untraced)",
        _ => "ok_ratio on every workload",
    }
}

#[cfg(test)]
/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Whether `unit` is valid: at most 16 of letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The result line: one JSON object. Non-finite values (a measurement
/// that is unavailable on this host) are written as `null`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[(Spec, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (m, v)) in metrics.iter().enumerate() {
        let value = if v.is_finite() {
            format!("{v:?}")
        } else {
            "null".to_string()
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use empi_trace::json::{parse, Value};

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let e2e = end_to_end();
        let layer = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!(
            (1..=128).contains(&layer.len()),
            "{} per-layer metrics",
            layer.len()
        );
        let mut seen = std::collections::HashSet::new();
        for m in e2e.iter().chain(&layer) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        assert!(e2e.contains(&spec("setup_s", "s", true)));
    }

    #[test]
    fn charset_rules() {
        assert!(valid_name("aead.boringssl.seal_ns_per_byte.2m"));
        assert!(valid_name("9lives-x_y.z"));
        assert!(!valid_name("_lead"));
        assert!(!valid_name(".lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("per/sec"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        assert!(valid_unit("ns/B") && valid_unit("%") && valid_unit("virtual_us"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let line = result_json(
            true,
            3,
            0,
            &[
                (spec("a", "s", true), 0.25),
                (spec("b", "MB", true), f64::NAN),
            ],
        );
        let v = parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(3.0));
        let a = v.get("metrics").and_then(|m| m.get("a")).expect("metric a");
        assert_eq!(a.get("value").and_then(Value::as_f64), Some(0.25));
        let b = v.get("metrics").and_then(|m| m.get("b")).expect("metric b");
        assert_eq!(b.get("value"), Some(&Value::Null));
    }

    /// `BENCHMARK.json` declares exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_specs() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = parse(&text).expect("valid JSON");
        for (key, specs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let declared = doc.get(key).and_then(Value::as_array).expect(key);
            assert_eq!(declared.len(), specs.len(), "{key}");
            for (d, s) in declared.iter().zip(&specs) {
                let field = |f: &str| match d.get(f) {
                    Some(Value::String(x)) => x.clone(),
                    other => panic!("{key}: {f} = {other:?}"),
                };
                assert_eq!(field("name"), s.name, "{key}");
                assert_eq!(field("unit"), s.unit, "{}", s.name);
                assert_eq!(
                    field("better"),
                    if s.lower { "lower" } else { "higher" },
                    "{}",
                    s.name
                );
            }
        }
    }
}
