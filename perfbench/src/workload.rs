//! The three workloads and their seeded request generator.
//!
//! A workload is a catalogue of request *specs* plus a fixed sequence
//! of indices into it. The closed loop walks the sequence, so the mix
//! is identical from run to run on one seed. Every payload's symbol
//! counts equal the histogram it is encoded under (for a delta, the
//! drifted histogram), which makes `bits_per_symbol` the same for every
//! optimal code of a family.

use crate::rng::{Rng, Zipf};
use partree_codecs::FamilyId;
use partree_service::frame::{encode_request, Histogram, Request};
use std::collections::HashSet;

/// Client threads driving every closed loop (the host's `nproc`).
pub const CLIENTS: usize = 2;
/// Replicas behind the gateway.
pub const REPLICAS: usize = 2;
/// Zipf exponent of the symbol draws that make payloads.
const SYMBOL_SKEW: f64 = 1.0;
/// Zipf exponent of `drift_tier1`'s key popularity.
const KEY_SKEW: f64 = 1.0;
/// `drift_tier1`: share of requests that are `EncodeDelta`, and the
/// share that are deltas nobody asked for before.
const DELTA_SHARE: f64 = 0.3;
const FRESH_DRIFT: f64 = 0.005;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotTier0,
    ColdConstruct,
    DriftTier1,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HotTier0,
        Workload::ColdConstruct,
        Workload::DriftTier1,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotTier0 => "hot_tier0",
            Workload::ColdConstruct => "cold_construct",
            Workload::DriftTier1 => "drift_tier1",
        }
    }

    /// Replicas keep a tier-1 store (a fresh directory per replica).
    pub fn store_backed(self) -> bool {
        self == Workload::DriftTier1
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Encode,
    Decode,
    EncodeDelta,
}

/// One request before the reference has run: a `Decode` spec names the
/// payload whose encoding it will carry.
#[derive(Debug, Clone)]
pub struct Spec {
    pub op: Op,
    pub family: FamilyId,
    /// The histogram the payload is coded under (for a delta, the
    /// drifted histogram).
    pub histogram: Histogram,
    pub payload: Vec<u8>,
    /// `EncodeDelta` only: the base codebook's key and the sparse drift.
    pub drift: Option<(u64, Vec<(u16, i32)>)>,
}

impl Spec {
    /// Cache key of the histogram the payload is coded under.
    pub fn key(&self) -> u64 {
        self.family.tagged_key(self.histogram.hash64())
    }

    /// The key the gateway routes on: the base key for a delta.
    pub fn route_key(&self) -> u64 {
        self.drift
            .as_ref()
            .map_or_else(|| self.key(), |(base, _)| *base)
    }

    /// The request that encodes this spec's payload (a delta encodes
    /// against its base).
    pub fn encode_request(&self) -> Request {
        match &self.drift {
            Some((base_key, deltas)) => Request::EncodeDelta {
                family: self.family,
                base_key: *base_key,
                deltas: deltas.clone(),
                payload: self.payload.clone(),
            },
            None => Request::Encode {
                family: self.family,
                histogram: self.histogram.clone(),
                payload: self.payload.clone(),
            },
        }
    }
}

/// A generated workload.
#[derive(Debug)]
pub struct Generated {
    pub workload: Workload,
    pub specs: Vec<Spec>,
    /// Request order, as indices into `specs`.
    pub seq: Vec<u32>,
    /// Whether the loop may start the sequence again when it runs out
    /// (`cold_construct` may not: a repeat would be a cache hit).
    pub wrap: bool,
    /// `Encode` specs every replica serves during set-up, building its
    /// working set.
    pub populate: Vec<u32>,
    /// Specs from this index on are checked against the reference after
    /// the measured phase instead of before it (each costs the reference
    /// a construction or a delta, and few are used).
    pub check_after: usize,
}

/// Sizes of a workload; tests shrink them.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `drift_tier1` working set (histograms).
    pub drift_working_set: usize,
    /// `drift_tier1` repeated drifts.
    pub drift_cases: usize,
    /// Sequence length of the cycling workloads.
    pub seq_len: usize,
    /// Distinct `cold_construct` histograms.
    pub cold_cases: usize,
}

impl Scale {
    /// Full size for a run measuring `seconds`: `cold_construct` gets
    /// well over the distinct histograms the fleet can build in that
    /// time (about 40 per second on two cores).
    pub fn for_seconds(seconds: u64) -> Scale {
        Scale {
            drift_working_set: 512,
            drift_cases: 64,
            seq_len: 1 << 18,
            cold_cases: 500 + 120 * seconds as usize,
        }
    }
}

/// The `hot_tier0` working set: (family, alphabet, histograms).
/// Minimax stops at n = 64: at n = 256 its optimal trees on payload
/// histograms run past the 64-bit codewords the service can realize,
/// and the service answers `Internal` (the defect stands; see
/// `perfbench/README.md`).
const HOT_SET: [(FamilyId, usize, usize); 10] = [
    (FamilyId::Huffman, 16, 3),
    (FamilyId::Huffman, 64, 3),
    (FamilyId::Huffman, 256, 3),
    (FamilyId::ShannonFano, 16, 3),
    (FamilyId::ShannonFano, 64, 3),
    (FamilyId::ShannonFano, 256, 3),
    (FamilyId::Minimax, 16, 4),
    (FamilyId::Minimax, 64, 5),
    (FamilyId::ChoosableEdge, 8, 3),
    (FamilyId::ChoosableEdge, 16, 2),
];

/// Histograms in the `hot_tier0` working set.
const HOT_SLOTS: usize = 32;

/// Tier-0 shape of the default `ServiceConfig` (8 shards, 64 entries).
const CACHE_SHARDS: u64 = 8;
const SHARD_CAPACITY: usize = 8;

pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Generated {
    match workload {
        Workload::HotTier0 => hot(seed, scale),
        Workload::ColdConstruct => cold(seed, scale),
        Workload::DriftTier1 => drift(seed, scale),
    }
}

/// `len` Zipf draws over `n` symbols whose ranks are a random
/// permutation, and the histogram of exactly those draws.
pub fn zipf_payload(rng: &mut Rng, n: usize, len: usize) -> (Histogram, Vec<u8>) {
    let mut ranks: Vec<u8> = (0..n).map(|s| s as u8).collect();
    rng.shuffle(&mut ranks);
    let zipf = Zipf::new(n, SYMBOL_SKEW);
    let payload: Vec<u8> = (0..len).map(|_| ranks[zipf.sample(rng)]).collect();
    let histogram =
        Histogram::of_payload(n, &payload).expect("a nonempty payload over 2..=256 symbols");
    (histogram, payload)
}

/// The size of slot `i` of `slots`: `lo..=hi` in even steps, visited in
/// a fixed scattered order (13 is coprime to every slot count used) so
/// neighbouring slots get unlike sizes.
fn spread(i: usize, slots: usize, lo: usize, hi: usize) -> usize {
    let k = (i * 13) % slots;
    lo + k * (hi - lo) / (slots - 1)
}

fn spec(op: Op, family: FamilyId, histogram: &Histogram, payload: &[u8]) -> Spec {
    Spec {
        op,
        family,
        histogram: histogram.clone(),
        payload: payload.to_vec(),
        drift: None,
    }
}

/// 32 histograms, all resident in both replicas' tier 0; two payload
/// orders per histogram, each sent as an `Encode` and as a `Decode`.
fn hot(seed: u64, scale: Scale) -> Generated {
    let mut rng = Rng::stream(seed, 1);
    let mut specs = Vec::new();
    let mut populate = Vec::new();
    let mut per_shard = [0usize; CACHE_SHARDS as usize];
    let mut slot = 0;
    for &(family, n, count) in &HOT_SET {
        for _ in 0..count {
            // Payload sizes are fixed per slot, spread over 1–16 KiB, so
            // the bytes per request do not change from seed to seed.
            let len = spread(slot, HOT_SLOTS, 1024, 16 * 1024);
            slot += 1;
            // Redraw a histogram whose tier-0 shard is already full, so
            // the whole working set stays resident and the measured
            // phase never constructs.
            let (histogram, payload) = loop {
                let (h, p) = zipf_payload(&mut rng, n, len);
                let shard = (family.tagged_key(h.hash64()) % CACHE_SHARDS) as usize;
                if per_shard[shard] < SHARD_CAPACITY {
                    per_shard[shard] += 1;
                    break (h, p);
                }
            };
            let mut reordered = payload.clone();
            rng.shuffle(&mut reordered);
            populate.push(specs.len() as u32);
            for p in [&payload, &reordered] {
                specs.push(spec(Op::Encode, family, &histogram, p));
                specs.push(spec(Op::Decode, family, &histogram, p));
            }
        }
    }
    let seq = (0..scale.seq_len)
        .map(|_| rng.below(specs.len()) as u32)
        .collect();
    Generated {
        workload: Workload::HotTier0,
        check_after: specs.len(),
        specs,
        seq,
        wrap: true,
        populate,
    }
}

/// Every request an `Encode` under a histogram nobody has seen: Huffman
/// over the byte alphabet, 4 KiB payloads.
fn cold(seed: u64, scale: Scale) -> Generated {
    let mut rng = Rng::stream(seed, 2);
    let mut seen = HashSet::new();
    let mut specs = Vec::with_capacity(scale.cold_cases);
    while specs.len() < scale.cold_cases {
        let (histogram, payload) = zipf_payload(&mut rng, 256, 4096);
        if seen.insert(histogram.hash64()) {
            specs.push(spec(Op::Encode, FamilyId::Huffman, &histogram, &payload));
        }
    }
    Generated {
        workload: Workload::ColdConstruct,
        seq: (0..specs.len() as u32).collect(),
        specs,
        wrap: false,
        populate: Vec::new(),
        check_after: 0,
    }
}

/// A bounded drift of `counts`: one to four nonzero symbols move to a
/// new count within a factor of two (the service's default bound), so
/// every changed symbol stays nonzero.
fn bounded_drift(rng: &mut Rng, counts: &[u32]) -> Vec<(u16, i32)> {
    let live: Vec<usize> = (0..counts.len()).filter(|&s| counts[s] > 0).collect();
    let k = rng.range(1, 4.min(live.len()));
    let mut picks = live;
    rng.shuffle(&mut picks);
    let mut deltas: Vec<(u16, i32)> = picks[..k]
        .iter()
        .map(|&s| {
            let old = counts[s] as usize;
            let mut new = old;
            while new == old {
                new = rng.range(old.div_ceil(2), 2 * old);
            }
            (s as u16, new as i32 - old as i32)
        })
        .collect();
    deltas.sort_unstable();
    deltas
}

/// A Huffman + Shannon–Fano working set at n = 64, eight times the
/// default tier-0 capacity, stored during set-up; Zipf-skewed keys; 70%
/// plain `Encode`/`Decode`, 30% `EncodeDelta` drifts of resident bases.
fn drift(seed: u64, scale: Scale) -> Generated {
    let mut rng = Rng::stream(seed, 3);
    let mut keys = HashSet::new();
    let mut specs = Vec::new();
    let mut bases = Vec::new();
    // Family and payload size are fixed per popularity rank, so the
    // traffic's shape does not change from seed to seed; the
    // histograms and payloads do.
    for i in 0..scale.drift_working_set {
        let family = [FamilyId::Huffman, FamilyId::ShannonFano][i % 2];
        let len = spread(i, scale.drift_working_set, 1024, 4096);
        let (histogram, payload) = loop {
            let (h, p) = zipf_payload(&mut rng, 64, len);
            if keys.insert(family.tagged_key(h.hash64())) {
                break (h, p);
            }
        };
        bases.push(specs.len());
        specs.push(spec(Op::Encode, family, &histogram, &payload));
        specs.push(spec(Op::Decode, family, &histogram, &payload));
    }
    let base_pick = Zipf::new(bases.len(), KEY_SKEW);
    let mut new_drift = |rng: &mut Rng, specs: &mut Vec<Spec>| loop {
        let base = &specs[bases[base_pick.sample(rng)]];
        let deltas = bounded_drift(rng, base.histogram.counts());
        let counts = partree_delta::apply_sparse(base.histogram.counts(), &deltas)
            .expect("a bounded drift keeps every count positive");
        let histogram = Histogram::new(counts).expect("a drift keeps the alphabet");
        if !keys.insert(base.family.tagged_key(histogram.hash64())) {
            continue;
        }
        let mut payload: Vec<u8> = histogram
            .counts()
            .iter()
            .enumerate()
            .flat_map(|(s, &c)| std::iter::repeat_n(s as u8, c as usize))
            .collect();
        rng.shuffle(&mut payload);
        specs.push(Spec {
            op: Op::EncodeDelta,
            family: base.family,
            drift: Some((base.key(), deltas)),
            histogram,
            payload,
        });
        return specs.len() as u32 - 1;
    };
    let first_delta = specs.len();
    for _ in 0..scale.drift_cases {
        new_drift(&mut rng, &mut specs);
    }
    // Repeated drifts are installed on first use and resident after it;
    // fresh ones (each used once, at a steady rate) keep the delta
    // engine and the store's appends busy all run long. They come last
    // and are checked after the measured phase.
    let check_after = specs.len();
    let delta_pick = Zipf::new(scale.drift_cases, KEY_SKEW);
    let mut seq = Vec::with_capacity(scale.seq_len);
    for _ in 0..scale.seq_len {
        let u = rng.unit();
        seq.push(if u < FRESH_DRIFT {
            new_drift(&mut rng, &mut specs)
        } else if u < DELTA_SHARE {
            (first_delta + delta_pick.sample(&mut rng)) as u32
        } else {
            (bases[base_pick.sample(&mut rng)] + rng.below(2)) as u32
        });
    }
    Generated {
        workload: Workload::DriftTier1,
        populate: bases.iter().map(|&i| i as u32).collect(),
        specs,
        seq,
        wrap: true,
        check_after,
    }
}

impl Generated {
    /// Every spec as wire bytes (op tag, then the encoding request
    /// frame), followed by the sequence: equal fingerprints mean equal
    /// request streams.
    pub fn fingerprint(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for s in &self.specs {
            out.push(s.op as u8);
            out.extend(encode_request(0, &s.encode_request()));
        }
        for &i in self.seq.iter().chain(&self.populate) {
            out.extend(i.to_le_bytes());
        }
        out
    }

    /// FNV-1a of [`Generated::fingerprint`], printed with every run.
    pub fn fingerprint_hash(&self) -> u64 {
        self.fingerprint()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partree_codecs::family;
    use partree_delta::{DeltaConfig, DeltaPath};

    fn small() -> Scale {
        Scale {
            drift_working_set: 24,
            drift_cases: 24,
            seq_len: 4096,
            cold_cases: 40,
        }
    }

    /// Which path the delta engine takes for each drift spec, in spec
    /// order: the patched/fallback mix the sequence carries.
    fn delta_paths(g: &Generated) -> Vec<DeltaPath> {
        g.specs
            .iter()
            .filter_map(|s| {
                let (base_key, _) = s.drift.as_ref()?;
                let base = g
                    .specs
                    .iter()
                    .find(|b| b.drift.is_none() && b.key() == *base_key)?;
                let lengths = family(s.family).lengths(base.histogram.counts()).ok()?;
                let r = partree_delta::apply(
                    s.family,
                    base.histogram.counts(),
                    &lengths,
                    s.histogram.counts(),
                    &DeltaConfig::default(),
                )
                .ok()?;
                Some(r.path)
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_request_stream() {
        for w in Workload::ALL {
            let a = generate(w, 11, small());
            let b = generate(w, 11, small());
            assert_eq!(a.fingerprint(), b.fingerprint(), "{}", w.name());
        }
    }

    #[test]
    fn same_seed_gives_the_same_patched_fallback_mix() {
        let a = delta_paths(&generate(Workload::DriftTier1, 5, small()));
        let b = delta_paths(&generate(Workload::DriftTier1, 5, small()));
        assert!(a.len() > small().drift_cases);
        assert_eq!(a, b);
        assert!(a.contains(&DeltaPath::Patched));
    }

    #[test]
    fn different_seeds_give_different_streams() {
        for w in Workload::ALL {
            let a = generate(w, 1, small());
            let b = generate(w, 2, small());
            assert_ne!(a.fingerprint(), b.fingerprint(), "{}", w.name());
        }
    }

    #[test]
    fn spread_visits_every_size_once() {
        let mut sizes: Vec<usize> = (0..32).map(|i| spread(i, 32, 1024, 16 * 1024)).collect();
        sizes.sort_unstable();
        sizes.dedup();
        assert_eq!(sizes.len(), 32);
        assert_eq!((sizes[0], sizes[31]), (1024, 16 * 1024));
    }

    #[test]
    fn payload_counts_equal_their_histogram() {
        for w in Workload::ALL {
            for s in &generate(w, 3, small()).specs {
                let n = s.histogram.alphabet();
                assert_eq!(Histogram::of_payload(n, &s.payload).unwrap(), s.histogram);
            }
        }
    }

    #[test]
    fn hot_working_set_fits_tier0_and_mixes_ops_evenly() {
        let g = generate(Workload::HotTier0, 9, small());
        assert_eq!(g.populate.len(), HOT_SLOTS);
        let mut shards = [0; CACHE_SHARDS as usize];
        for &i in &g.populate {
            shards[(g.specs[i as usize].key() % CACHE_SHARDS) as usize] += 1;
        }
        assert!(shards.iter().all(|&c| c <= SHARD_CAPACITY));
        let decodes = g
            .seq
            .iter()
            .filter(|&&i| g.specs[i as usize].op == Op::Decode)
            .count();
        assert!((decodes as f64 / g.seq.len() as f64 - 0.5).abs() < 0.05);
    }

    #[test]
    fn cold_histograms_are_distinct_and_drifts_are_bounded() {
        let g = generate(Workload::ColdConstruct, 4, small());
        let keys: HashSet<u64> = g.specs.iter().map(Spec::key).collect();
        assert_eq!(keys.len(), g.specs.len());
        let d = generate(Workload::DriftTier1, 4, small());
        let deltas = d
            .seq
            .iter()
            .filter(|&&i| d.specs[i as usize].op == Op::EncodeDelta)
            .count();
        assert!((deltas as f64 / d.seq.len() as f64 - 0.3).abs() < 0.05);
        for s in d.specs.iter().filter(|s| s.op == Op::EncodeDelta) {
            let (base_key, _) = s.drift.as_ref().unwrap();
            let base = d.specs.iter().find(|b| b.key() == *base_key).unwrap();
            let cfg = DeltaConfig::default();
            for (&old, &new) in base.histogram.counts().iter().zip(s.histogram.counts()) {
                assert!(old == new || (old > 0 && cfg.within_bound(old, new)));
            }
        }
    }
}
