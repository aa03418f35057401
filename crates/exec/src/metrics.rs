//! Executor observability: per-pool counters, exported as flat JSON in
//! the same hand-rolled style as the service's `metrics.rs` (integer
//! values, unknown keys skippable by readers).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters for one [`crate::Pool`]. All relaxed: they count,
/// they do not synchronize.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Successful steals from another worker's deque.
    pub steals: AtomicU64,
    /// Times a worker went to sleep on the pool condvar.
    pub parks: AtomicU64,
    /// Jobs submitted through the global injector queue.
    pub injected: AtomicU64,
    /// Jobs executed by pool workers (blocks + join halves).
    pub blocks_executed: AtomicU64,
    /// `join` calls served by the pool (counted at the fork).
    pub joins: AtomicU64,
    /// OS threads spawned over the pool's lifetime (its width, for a
    /// healthy pool: spawning is eager and workers never respawn).
    pub workers_spawned: AtomicU64,
}

impl Metrics {
    #[inline]
    pub(crate) fn bump(cell: &AtomicU64) {
        // ordering: Relaxed — counters count; they do not synchronize.
        cell.fetch_add(1, Ordering::Relaxed);
    }
}

/// A plain-data freeze of [`Metrics`] plus instantaneous gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecSnapshot {
    /// Successful steals.
    pub steals: u64,
    /// Worker parks.
    pub parks: u64,
    /// Injector submissions.
    pub injected: u64,
    /// Jobs executed.
    pub blocks_executed: u64,
    /// Joins forked through the pool.
    pub joins: u64,
    /// Worker threads spawned.
    pub workers: u64,
    /// Jobs sitting in the injector right now (gauge).
    pub injector_depth: u64,
}

impl ExecSnapshot {
    /// One flat JSON object, keys in declaration order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(192);
        out.push('{');
        let mut first = true;
        let mut field = |k: &str, v: u64| {
            let sep = if first { "" } else { "," };
            first = false;
            let _ = write!(out, "{sep}\"{k}\":{v}");
        };
        field("steals", self.steals);
        field("parks", self.parks);
        field("injected", self.injected);
        field("blocks_executed", self.blocks_executed);
        field("joins", self.joins);
        field("workers", self.workers);
        field("injector_depth", self.injector_depth);
        out.push('}');
        out
    }

    /// Parses the output of [`ExecSnapshot::to_json`]. Unknown keys are
    /// ignored, missing keys default to 0.
    pub fn from_json(text: &str) -> Result<ExecSnapshot, String> {
        let body = text
            .trim()
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'))
            .ok_or("exec metrics JSON must be one object")?;
        let mut snap = ExecSnapshot::default();
        if body.trim().is_empty() {
            return Ok(snap);
        }
        for pair in body.split(',') {
            let (k, v) = pair
                .split_once(':')
                .ok_or_else(|| format!("bad pair {pair:?}"))?;
            let k = k.trim().trim_matches('"');
            let v: u64 = v
                .trim()
                .parse()
                .map_err(|e| format!("bad value for {k}: {e}"))?;
            match k {
                "steals" => snap.steals = v,
                "parks" => snap.parks = v,
                "injected" => snap.injected = v,
                "blocks_executed" => snap.blocks_executed = v,
                "joins" => snap.joins = v,
                "workers" => snap.workers = v,
                "injector_depth" => snap.injector_depth = v,
                _ => {} // forward compatibility
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let snap = ExecSnapshot {
            steals: 3,
            parks: 1,
            injected: 9,
            blocks_executed: 40,
            joins: 7,
            workers: 4,
            injector_depth: 0,
        };
        let back = ExecSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn from_json_tolerates_unknown_rejects_garbage() {
        let s = ExecSnapshot::from_json("{\"steals\":5,\"future_key\":1}").unwrap();
        assert_eq!(s.steals, 5);
        assert!(ExecSnapshot::from_json("nope").is_err());
        assert!(ExecSnapshot::from_json("{\"steals\":\"x\"}").is_err());
    }
}
