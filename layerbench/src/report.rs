//! Metric names, the share arithmetic, and the result line.

/// End-to-end metrics, `(name, unit)`: the timed mode reports these.
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput_rps", "1/s"),
    ("get_p50_us", "us"),
    ("get_p99_us", "us"),
    ("hit_rate", "ratio"),
    ("byte_hit_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`: the traced mode reports these.
/// The last three are end-to-end figures that are zero or absent on
/// some workloads, so they cannot carry a regression bound.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("core.access_ns_mean", "ns"),
    ("core.access_ns_p99", "ns"),
    ("core.evictions_per_req", "count/req"),
    ("core.snapshot_ns_mean", "ns"),
    ("core.snapshots_per_1k_req", "count/1k"),
    ("core.share", "ratio"),
    ("service.get_ns_mean", "ns"),
    ("service.self_ns_mean", "ns"),
    ("service.share", "ratio"),
    ("persist.append_ns_mean", "ns"),
    ("persist.append_ns_p99", "ns"),
    ("persist.checkpoint_ns_mean", "ns"),
    ("persist.checkpoint_ns_p99", "ns"),
    ("persist.checkpoints_per_1k_req", "count/1k"),
    ("persist.checkpoint_bytes_mean", "bytes"),
    ("persist.write_bytes_per_req", "bytes/req"),
    ("persist.open_ms", "ms"),
    ("persist.share", "ratio"),
    ("protocol.decode_ns_mean", "ns"),
    ("protocol.encode_ns_mean", "ns"),
    ("protocol.bytes_per_req", "bytes/req"),
    ("protocol.share", "ratio"),
    ("server.loop_ns_per_req", "ns"),
    ("server.wakeups_per_req", "count/req"),
    ("server.shed", "count"),
    ("server.share", "ratio"),
    ("ring.owners_ns_mean", "ns"),
    ("cluster.probes_per_req", "count/req"),
    ("cluster.peer_hit_ratio", "ratio"),
    ("cluster.fill_ns_mean", "ns"),
    ("cluster.breaker_open", "count"),
    ("cluster.share", "ratio"),
    ("bench.generator_cpu_share", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unattributed_share", "ratio"),
    ("error_rate", "ratio"),
    ("range_p50_us", "us"),
    ("range_p99_us", "us"),
];

/// Per-request self times in ns, and the per-request wall time they
/// are shares of.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// 1 / `throughput_rps`, in ns.
    pub per_request: f64,
    /// `access_into`, residency reads and snapshots.
    pub core: f64,
    /// `CacheService` minus its `core` and `persist` children.
    pub service: f64,
    /// WAL appends and checkpoints.
    pub persist: f64,
    /// Frame decode and encode.
    pub protocol: f64,
    /// Peer fills (client-measured fill cost times the local-miss rate).
    pub cluster: f64,
}

/// Each layer's share of the per-request time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shares {
    /// Per-request time left for the event loop and loopback I/O: the
    /// per-request time minus service, protocol and cluster, at least 0.
    pub server_loop_ns: f64,
    /// Layer shares.
    pub core: f64,
    /// See `core`.
    pub service: f64,
    /// See `core`.
    pub persist: f64,
    /// See `core`.
    pub protocol: f64,
    /// See `core`.
    pub server: f64,
    /// See `core`.
    pub cluster: f64,
    /// 1 − Σ shares: negative when the in-process layers took longer
    /// than the served request did.
    pub unattributed: f64,
}

/// Divide each layer's self time by the per-request time.
pub fn shares(t: &LayerTimes) -> Shares {
    let t_req = t.per_request;
    let server_loop_ns = (t_req - t.core - t.service - t.persist - t.protocol - t.cluster).max(0.0);
    let share = |ns: f64| if t_req > 0.0 { ns / t_req } else { 0.0 };
    let mut s = Shares {
        server_loop_ns,
        core: share(t.core),
        service: share(t.service),
        persist: share(t.persist),
        protocol: share(t.protocol),
        server: share(server_loop_ns),
        cluster: share(t.cluster),
        unattributed: 0.0,
    };
    s.unattributed = 1.0 - (s.core + s.service + s.persist + s.protocol + s.server + s.cluster);
    s
}

/// Median of `values` (0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    (values[(n - 1) / 2] + values[n / 2]) / 2.0
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// `metrics` pairs each name of `table` with its value; a non-finite
/// value (a bug) is written as 0 so the line stays valid JSON.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    value: impl Fn(&str) -> f64,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = value(name);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use clipcache_workload::json::{self, Json};
    use clipcache_workload::Pcg64;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_are_well_formed_and_match_benchmark_json() {
        let doc = benchmark_json();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed(&doc, key), ours, "{key} differs from BENCHMARK.json");
            for (name, _) in &ours {
                assert!(well_formed(name), "bad metric name {name}");
            }
        }
        let names: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn shares_sum_to_one_with_the_unattributed_rest() {
        let mut rng = Pcg64::seed_from_u64(3);
        for _ in 0..1000 {
            let mut draw = |scale: f64| rng.next_f64() * scale;
            let t = LayerTimes {
                per_request: draw(5000.0) + 1.0,
                core: draw(3000.0),
                service: draw(1000.0) - 100.0,
                persist: draw(2000.0),
                protocol: draw(100.0),
                cluster: draw(2000.0),
            };
            let s = shares(&t);
            let sum = s.core + s.service + s.persist + s.protocol + s.server + s.cluster;
            assert!((sum + s.unattributed - 1.0).abs() < 1e-9);
            assert!(s.server >= 0.0);
        }
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let line = result_line(true, 10, 0, &END_TO_END, |_| 1.5);
        let doc = json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(10));
        let metrics = doc.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).expect("every metric present");
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.5));
        }
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
