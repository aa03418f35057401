//! Gateway counters: request-level outcomes plus one latency histogram
//! and health view per replica, exported as hand-written JSON (same
//! no-external-crates convention as `partree-service::metrics`; the
//! schema is in `EXPERIMENTS.md` § E15).

use crate::breaker::BreakerState;
use partree_service::{FamilyId, FAMILY_COUNT};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Log₂ latency buckets in microseconds: bucket `i` counts latencies in
/// `[2^i, 2^(i+1))` µs (bucket 0 also catches sub-µs); the last bucket
/// is open-ended. 2⁰µs … 2¹⁹µs ≈ 0.5 s spans loopback to deadline.
pub const LATENCY_BUCKETS: usize = 20;

/// Bucket index for a latency in microseconds.
pub fn latency_bucket(us: u64) -> usize {
    (63 - u64::leading_zeros(us.max(1)) as usize).min(LATENCY_BUCKETS - 1)
}

/// Per-replica counters (all relaxed atomics).
#[derive(Debug, Default)]
pub struct ReplicaMetrics {
    /// Attempts sent to this replica (including hedges and probes are
    /// *not* counted here — data requests only).
    pub attempts: AtomicU64,
    /// Attempts that returned a terminal response.
    pub successes: AtomicU64,
    /// Attempts that failed at the liveness layer: transport errors
    /// plus `ShuttingDown` responses. These are the breaker's inputs.
    pub transport_errors: AtomicU64,
    /// `Busy`/`Timeout` responses (replica alive but couldn't serve:
    /// queue full, draining, or server-side deadline miss).
    pub busy: AtomicU64,
    /// Health probes answered.
    pub pings_ok: AtomicU64,
    /// Health probes failed.
    pub pings_failed: AtomicU64,
    /// Successful-attempt latency histogram (log₂ µs buckets).
    pub latency: [AtomicU64; LATENCY_BUCKETS],
    /// Sum of successful-attempt latencies, µs.
    pub latency_us_total: AtomicU64,
    /// Max successful-attempt latency, µs.
    pub latency_us_max: AtomicU64,
}

impl ReplicaMetrics {
    /// Folds one successful attempt latency into the histogram.
    pub fn record_latency(&self, us: u64) {
        self.latency[latency_bucket(us)].fetch_add(1, Ordering::Relaxed);
        self.latency_us_total.fetch_add(us, Ordering::Relaxed);
        let mut cur = self.latency_us_max.load(Ordering::Relaxed);
        while us > cur {
            match self.latency_us_max.compare_exchange_weak(
                cur,
                us,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Gateway-level counters (all relaxed atomics).
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests entering the router.
    pub requests: AtomicU64,
    /// Requests answered with a terminal response inside the deadline.
    pub completed: AtomicU64,
    /// Retry attempts launched (beyond each request's first attempt;
    /// hedges are counted separately).
    pub retries: AtomicU64,
    /// Requests whose *winning* attempt ran on a replica other than the
    /// rendezvous home shard.
    pub failovers: AtomicU64,
    /// Hedge attempts launched after the adaptive latency threshold.
    pub hedges_issued: AtomicU64,
    /// Hedges whose response arrived before the primary's.
    pub hedges_won: AtomicU64,
    /// Requests that exhausted their deadline budget.
    pub deadline_exceeded: AtomicU64,
    /// Requests that failed after spending their retry budget, with no
    /// attempt left in flight: the last attempt's failure is returned.
    /// Every request ends in exactly one of `completed`,
    /// `deadline_exceeded` and `retries_exhausted`.
    pub retries_exhausted: AtomicU64,
    /// Requests routed with every breaker open (best-effort fallback to
    /// the full preference order).
    pub no_healthy_replica: AtomicU64,
    /// Requests rejected because the gateway is shutting down.
    pub rejected_shutdown: AtomicU64,
    /// Warm-up rounds completed: a recovered replica was refilled from
    /// a healthy donor's hot set before its breaker re-closed.
    pub warmups: AtomicU64,
    /// Codebooks donated across all warm-up rounds.
    pub warmup_keys_sent: AtomicU64,
    /// Codec requests entering the router, by code family (indexed by
    /// [`FamilyId::index`]; legacy opcodes count as Huffman).
    pub family_requests: [AtomicU64; FAMILY_COUNT],
}

/// Plain-data per-replica view, as exported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaSnapshot {
    /// Replica index (position in the gateway's replica list).
    pub id: usize,
    /// Replica address.
    pub addr: String,
    /// Attempts sent.
    pub attempts: u64,
    /// Terminal responses.
    pub successes: u64,
    /// Transport-layer failures.
    pub transport_errors: u64,
    /// `Busy` responses.
    pub busy: u64,
    /// Probes answered / failed.
    pub pings_ok: u64,
    /// Probes failed.
    pub pings_failed: u64,
    /// Latency histogram (log₂ µs buckets).
    pub latency: Vec<u64>,
    /// Latency sum, µs.
    pub latency_us_total: u64,
    /// Latency max, µs.
    pub latency_us_max: u64,
    /// Breaker state at snapshot time.
    pub breaker: BreakerState,
    /// Times this replica's breaker has opened.
    pub breaker_opened: u64,
    /// True when the replica advertises draining.
    pub draining: bool,
}

/// Plain-data gateway view, as exported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewaySnapshot {
    /// Requests entering the router.
    pub requests: u64,
    /// Terminal responses inside the deadline.
    pub completed: u64,
    /// Retry attempts.
    pub retries: u64,
    /// Winning attempts off the home shard.
    pub failovers: u64,
    /// Hedge attempts launched.
    pub hedges_issued: u64,
    /// Hedges that won.
    pub hedges_won: u64,
    /// Deadline exhaustions.
    pub deadline_exceeded: u64,
    /// Failures after the retry budget ran out.
    pub retries_exhausted: u64,
    /// All-breakers-open fallbacks.
    pub no_healthy_replica: u64,
    /// Rejected during shutdown.
    pub rejected_shutdown: u64,
    /// Warm-up rounds completed.
    pub warmups: u64,
    /// Codebooks donated across all warm-up rounds.
    pub warmup_keys_sent: u64,
    /// Codec requests by code family (indexed by [`FamilyId::index`]).
    pub family_requests: [u64; FAMILY_COUNT],
    /// Per-replica views.
    pub replicas: Vec<ReplicaSnapshot>,
}

impl Metrics {
    /// Freezes the gateway-level counters (replica rows are appended by
    /// the gateway, which owns the breaker/drain state).
    pub fn snapshot(&self, replicas: Vec<ReplicaSnapshot>) -> GatewaySnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        GatewaySnapshot {
            requests: get(&self.requests),
            completed: get(&self.completed),
            retries: get(&self.retries),
            failovers: get(&self.failovers),
            hedges_issued: get(&self.hedges_issued),
            hedges_won: get(&self.hedges_won),
            deadline_exceeded: get(&self.deadline_exceeded),
            retries_exhausted: get(&self.retries_exhausted),
            no_healthy_replica: get(&self.no_healthy_replica),
            rejected_shutdown: get(&self.rejected_shutdown),
            warmups: get(&self.warmups),
            warmup_keys_sent: get(&self.warmup_keys_sent),
            family_requests: std::array::from_fn(|i| get(&self.family_requests[i])),
            replicas,
        }
    }
}

impl GatewaySnapshot {
    /// One JSON object: flat gateway counters plus a `replicas` array
    /// (schema in `EXPERIMENTS.md` § E15).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"requests\":{},\"completed\":{},\"retries\":{},\"failovers\":{},\
             \"hedges_issued\":{},\"hedges_won\":{},\"deadline_exceeded\":{},\
             \"retries_exhausted\":{},\"no_healthy_replica\":{},\"rejected_shutdown\":{},\
             \"warmups\":{},\"warmup_keys_sent\":{},",
            self.requests,
            self.completed,
            self.retries,
            self.failovers,
            self.hedges_issued,
            self.hedges_won,
            self.deadline_exceeded,
            self.retries_exhausted,
            self.no_healthy_replica,
            self.rejected_shutdown,
            self.warmups,
            self.warmup_keys_sent,
        );
        for f in FamilyId::ALL {
            let _ = write!(
                out,
                "\"family_{}_requests\":{},",
                f.name(),
                self.family_requests[f.index()]
            );
        }
        out.push_str("\"replicas\":[");
        for (i, r) in self.replicas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"addr\":\"{}\",\"attempts\":{},\"successes\":{},\
                 \"transport_errors\":{},\"busy\":{},\"pings_ok\":{},\"pings_failed\":{},\
                 \"latency_us_total\":{},\"latency_us_max\":{},\"breaker\":\"{}\",\
                 \"breaker_opened\":{},\"draining\":{},\"latency_log2_us\":[",
                r.id,
                r.addr,
                r.attempts,
                r.successes,
                r.transport_errors,
                r.busy,
                r.pings_ok,
                r.pings_failed,
                r.latency_us_total,
                r.latency_us_max,
                r.breaker.name(),
                r.breaker_opened,
                r.draining,
            );
            for (j, b) in r.latency.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 0);
        assert_eq!(latency_bucket(2), 1);
        assert_eq!(latency_bucket(3), 1);
        assert_eq!(latency_bucket(1024), 10);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn histogram_and_json_shape() {
        let rm = ReplicaMetrics::default();
        rm.record_latency(100);
        rm.record_latency(100);
        rm.record_latency(5000);
        assert_eq!(rm.latency[latency_bucket(100)].load(Ordering::Relaxed), 2);
        assert_eq!(rm.latency_us_max.load(Ordering::Relaxed), 5000);

        let m = Metrics::default();
        m.requests.store(7, Ordering::Relaxed);
        m.family_requests[FamilyId::ShannonFano.index()].store(4, Ordering::Relaxed);
        let snap = m.snapshot(vec![ReplicaSnapshot {
            id: 0,
            addr: "127.0.0.1:9".into(),
            attempts: 3,
            successes: 3,
            transport_errors: 0,
            busy: 0,
            pings_ok: 1,
            pings_failed: 0,
            latency: (0..LATENCY_BUCKETS as u64).collect(),
            latency_us_total: 5200,
            latency_us_max: 5000,
            breaker: BreakerState::Closed,
            breaker_opened: 0,
            draining: false,
        }]);
        let json = snap.to_json();
        assert!(json.starts_with("{\"requests\":7,"));
        assert_eq!(snap.family_requests, [0, 4, 0, 0]);
        assert!(json.contains("\"family_sf_requests\":4"));
        assert!(json.contains("\"family_huffman_requests\":0"));
        assert!(json.contains("\"breaker\":\"closed\""));
        assert!(json.contains("\"latency_log2_us\":[0,1,2,"));
        assert!(json.ends_with("]}"));
    }
}
