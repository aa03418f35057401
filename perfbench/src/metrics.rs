//! Metric names and units, as `BENCHMARK.json` declares them, and the
//! result line every run prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("bits_per_symbol", "bit"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gateway.tax_p50_us", "us"),
    ("gateway.hedges_per_request", "ratio"),
    ("gateway.hedge_win_ratio", "ratio"),
    ("gateway.off_home_ratio", "ratio"),
    ("gateway.retries", "count"),
    ("net.tax_p50_us", "us"),
    ("frame.request_ns", "ns"),
    ("frame.response_ns", "ns"),
    ("server.submit_p50_us", "us"),
    ("server.queue_batch_us", "us"),
    ("server.mean_batch", "count"),
    ("server.latency_mean_us", "us"),
    ("server.busy", "count"),
    ("server.expired", "count"),
    ("codebook.hit_p50_ns", "ns"),
    ("codebook.tier0_hit_ratio", "ratio"),
    ("codebook.constructions_per_distinct", "ratio"),
    ("codebook.evictions", "count"),
    ("store.get_p50_us", "us"),
    ("store.put_p50_us", "us"),
    ("store.tier1_hit_ratio", "ratio"),
    ("store.promotions", "count"),
    ("store.errors", "count"),
    ("store.segments", "count"),
    ("store.compactions", "count"),
    ("store.disk_bytes_per_live_record", "B"),
    ("codecs.huffman.lengths_us.n16", "us"),
    ("codecs.huffman.lengths_us.n64", "us"),
    ("codecs.huffman.lengths_us.n256", "us"),
    ("codecs.sf.lengths_us.n16", "us"),
    ("codecs.sf.lengths_us.n64", "us"),
    ("codecs.sf.lengths_us.n256", "us"),
    ("codecs.minimax.lengths_us.n16", "us"),
    ("codecs.minimax.lengths_us.n64", "us"),
    ("codecs.minimax.lengths_us.n256", "us"),
    ("codecs.choosable.lengths_us.n8", "us"),
    ("codecs.choosable.lengths_us.n16", "us"),
    ("huffman.work.n256", "count"),
    ("huffman.depth.n256", "count"),
    ("exec.steals", "count"),
    ("exec.parks", "count"),
    ("exec.blocks", "count"),
    ("codes.encode_ns_per_byte", "ns/B"),
    ("codes.decode_ns_per_byte", "ns/B"),
    ("delta.apply_p50_us", "us"),
    ("delta.patched_ratio", "ratio"),
    ("delta.unknown_base", "count"),
    ("trace.overhead_pct", "%"),
];

/// Measured values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// One line per metric of `defs`: name, value, unit.
    pub fn table(&self, defs: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (name, unit) in defs {
            let v = self.0.get(*name).copied().unwrap_or(f64::NAN);
            let _ = writeln!(out, "  {name:<40} {v:>16.4} {unit}");
        }
        out
    }

    /// The result object: exactly the metrics of `defs`, in order.
    pub fn result_line(
        &self,
        defs: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
        for (k, (name, unit)) in defs.iter().enumerate() {
            let v = self
                .0
                .get(*name)
                .copied()
                .ok_or(format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            let sep = if k == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The code and `BENCHMARK.json` name the same metrics with the same
    /// units.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let flat: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let decl = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(flat.contains(&decl), "BENCHMARK.json lacks {decl}");
        }
        assert_eq!(
            flat.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn result_line_has_exactly_the_declared_metrics() {
        let mut m = Metrics::default();
        m.put("a", 1.5);
        m.put("b", 2.0);
        m.put("extra", 3.0);
        let line = m
            .result_line(&[("a", "s"), ("b", "ms")], true, 3, 0)
            .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"ms\"}}}"
        );
        assert!(m.result_line(&[("missing", "s")], true, 1, 0).is_err());
    }
}
