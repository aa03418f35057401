//! The traced run: the workload's request sequence replayed through
//! each layer's public entry point, outermost to innermost, each level
//! on its own freshly set-up instance, plus timings of the inner layers
//! on the workload's own data. Spans are kept in memory and written out
//! at the end.

use crate::check::{Case, Expected, Reference, Tally};
use crate::drive::{
    closed_loop, populate, settle, since_epoch, span_id, Caller, Limit, LoopResult, Recorder, Span,
};
use crate::fleet::{clients, start_servers, start_services, Deltas, Fleet, TmpRoot};
use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::stats::{median, median_f64, ratio};
use crate::workload::{zipf_payload, Generated, CLIENTS, REPLICAS};
use partree_codecs::{family, FamilyId};
use partree_delta::DeltaConfig;
use partree_gateway::route::home;
use partree_pram::CostTracer;
use partree_service::client::Client;
use partree_service::codebook::Codebook;
use partree_service::frame::{
    decode_request, decode_response, encode_request, encode_response, read_frame, ErrorCode,
    Histogram, Request, Response,
};
use partree_service::{CodebookCache, Service, ServiceConfig};
use partree_store::{CodebookStore, LogConfig, LogStore};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hint::black_box;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `Client::request` straight to the request's `route::home` replica.
struct NetCaller(Vec<Client>);

impl Caller for NetCaller {
    fn call(&mut self, case: &Case, _: &mut Recorder) -> io::Result<Response> {
        self.0[home(case.route_key, REPLICAS)].request(&case.request)
    }
}

/// `Service::submit` on the home replica's service.
struct ServiceCaller<'a>(&'a [Service]);

impl Caller for ServiceCaller<'_> {
    fn call(&mut self, case: &Case, rec: &mut Recorder) -> io::Result<Response> {
        let request = case.request.clone();
        let t0 = Instant::now();
        let resp = self.0[home(case.route_key, REPLICAS)].submit(request);
        rec.child("service.submit", t0, Instant::now());
        Ok(resp)
    }
}

/// Codebooks the codebook level resolved, first-seen order, with the
/// payload of a request that used them: the inner layers' test data.
#[derive(Default)]
struct Books {
    seen: HashSet<u64>,
    books: Vec<(Arc<Codebook>, Vec<u8>)>,
}

const MAX_BOOKS: usize = 1024;

/// The codebook layer: what a batch worker does for one request,
/// through `CodebookCache`, `partree_delta::apply` and `Codebook`'s
/// codec calls.
struct CodebookLevel {
    caches: Vec<CodebookCache>,
    delta: DeltaConfig,
    /// Built like a service's construction pool, and entered the same
    /// way around every construction and delta application.
    pool: rayon::ThreadPool,
    books: Mutex<Books>,
}

impl CodebookLevel {
    fn start(store_backed: bool, tmp: &TmpRoot) -> Result<CodebookLevel, String> {
        let cfg = ServiceConfig::default();
        let caches = (0..REPLICAS)
            .map(|r| {
                let tier1 = if store_backed {
                    let dir = tmp.fresh_dir(&format!("codebook{r}"));
                    let store = partree_store::open_log_store(&dir).map_err(|e| e.to_string())?;
                    Some(Arc::new(store) as Arc<dyn CodebookStore>)
                } else {
                    None
                };
                Ok(CodebookCache::with_config(
                    cfg.cache_shards,
                    cfg.cache_capacity,
                    tier1,
                    cfg.cache_family_pct,
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(CodebookLevel {
            caches,
            delta: DeltaConfig::from_ratio_pct(cfg.delta_ratio_pct),
            pool: service_pool(),
            books: Mutex::default(),
        })
    }

    fn remember(&self, book: &Arc<Codebook>, payload: &[u8]) {
        let mut b = self.books.lock().expect("book list poisoned");
        if b.books.len() < MAX_BOOKS && b.seen.insert(book.key) {
            b.books.push((Arc::clone(book), payload.to_vec()));
        }
    }

    /// Resolves the drifted codebook the way the service's delta path
    /// does: base by key, drift, resident drifted book or the delta
    /// engine's patch-or-rebuild, installed under its own key.
    fn delta_book(
        &self,
        cache: &CodebookCache,
        family: FamilyId,
        base_key: u64,
        deltas: &[(u16, i32)],
        rec: &mut Recorder,
    ) -> Result<(Arc<Codebook>, u8), Response> {
        let internal = |m: String| Response::Error {
            code: ErrorCode::Internal,
            message: m,
        };
        let base = cache
            .lookup_key(base_key, family, None)
            .ok_or(Response::Error {
                code: ErrorCode::UnknownBase,
                message: format!("no {family} base under {base_key:#018x}"),
            })?;
        let counts = partree_delta::apply_sparse(base.histogram.counts(), deltas)
            .map_err(|e| internal(e.to_string()))?;
        let hist = Histogram::new(counts).map_err(Response::from)?;
        if let Some(book) = cache.lookup_key(family.tagged_key(hist.hash64()), family, Some(&hist))
        {
            return Ok((book, partree_delta::DeltaPath::Patched.tag()));
        }
        let t0 = Instant::now();
        let r = self
            .pool
            .install(|| {
                partree_delta::apply(
                    family,
                    base.histogram.counts(),
                    &base.lengths,
                    hist.counts(),
                    &self.delta,
                )
            })
            .map_err(|e| internal(e.to_string()))?;
        rec.child("delta.apply", t0, Instant::now());
        let book = Codebook::from_lengths(&hist, family, r.lengths, &CostTracer::disabled())
            .map_err(Response::from)?;
        Ok((cache.install(book), r.path.tag()))
    }

    fn call(&self, r: usize, case: &Case, rec: &mut Recorder) -> Response {
        let cache = &self.caches[r];
        let t0 = Instant::now();
        let resolved = match &case.request {
            Request::Encode {
                family, histogram, ..
            }
            | Request::Decode {
                family, histogram, ..
            } => self
                .pool
                .install(|| cache.get_or_build(histogram, *family, &CostTracer::disabled()))
                .map(|b| (b, None))
                .map_err(Response::from),
            Request::EncodeDelta {
                family,
                base_key,
                deltas,
                ..
            } => self
                .delta_book(cache, *family, *base_key, deltas, rec)
                .map(|(b, p)| (b, Some(p))),
            other => {
                return Response::Error {
                    code: ErrorCode::Malformed,
                    message: format!("not a codec request: {other:?}"),
                }
            }
        };
        let t1 = Instant::now();
        rec.child("codebook.resolve", t0, t1);
        let (book, path) = match resolved {
            Ok(x) => x,
            Err(resp) => return resp,
        };
        let resp = match &case.request {
            Request::Decode { bit_len, data, .. } => book.decode(data, *bit_len).map(|payload| {
                rec.child("codes.decode", t1, Instant::now());
                self.remember(&book, &payload);
                Response::Decoded { payload }
            }),
            Request::Encode { payload, .. } | Request::EncodeDelta { payload, .. } => {
                book.encode(payload).map(|(data, bit_len)| {
                    rec.child("codes.encode", t1, Instant::now());
                    self.remember(&book, payload);
                    match path {
                        Some(path) => Response::DeltaEncoded {
                            path,
                            bit_len,
                            data,
                        },
                        None => Response::Encoded { bit_len, data },
                    }
                })
            }
            _ => unreachable!("non-codec requests answered above"),
        };
        resp.unwrap_or_else(Response::from)
    }
}

/// A pool like the one `Service::start` builds for its constructions.
fn service_pool() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(ServiceConfig::default().pool_threads)
        .build()
        .expect("building a vendored rayon pool cannot fail")
}

struct CodebookCaller<'a>(&'a CodebookLevel);

impl Caller for CodebookCaller<'_> {
    fn call(&mut self, case: &Case, rec: &mut Recorder) -> io::Result<Response> {
        Ok(self.0.call(home(case.route_key, REPLICAS), case, rec))
    }
}

/// Median duration of the spans called `name`, in ns (0 if none).
fn p50_span(spans: &[Span], name: &str) -> f64 {
    let mut d: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect();
    median(&mut d) as f64
}

/// Every level's loop result, in order, plus the levels' root spans.
struct Phases {
    results: Vec<LoopResult>,
    roots: Vec<Span>,
}

impl Phases {
    fn run(
        &mut self,
        level: &'static str,
        f: impl FnOnce(Option<(&'static str, u64)>) -> LoopResult,
    ) -> &LoopResult {
        let root = span_id();
        let t0 = Instant::now();
        let res = f(Some((level, root)));
        self.roots.push(Span {
            name: "level",
            id: root,
            parent: 0,
            request: 0,
            start_ns: since_epoch(t0),
            end_ns: since_epoch(Instant::now()),
        });
        self.results.push(res);
        self.results.last().expect("just pushed")
    }

    fn spans(&self) -> impl Iterator<Item = &Span> {
        self.roots
            .iter()
            .chain(self.results.iter().flat_map(|r| &r.spans))
    }
}

/// What the traced run measured.
pub struct TraceOut {
    pub metrics: Metrics,
    pub tally: Tally,
    pub spans: Vec<Span>,
    pub notes: Vec<String>,
    /// The fleet's counters around the traced gateway phase, and the
    /// requests it completed.
    pub gateway_phase: Deltas,
    pub gateway_requests: usize,
}

/// The traced run. `phase` is each timed gateway phase's length; the
/// inner levels replay exactly the requests the traced gateway phase
/// completed.
pub fn traced(
    g: &Generated,
    cases: &[Case],
    reference: &Reference,
    phase: Duration,
    seed: u64,
    tmp: &TmpRoot,
) -> Result<TraceOut, String> {
    let store_backed = g.workload.store_backed();
    let io_err = |e: io::Error| e.to_string();
    let mut notes = Vec::new();
    let mut ph = Phases {
        results: Vec::new(),
        roots: Vec::new(),
    };

    // The gateway level, untraced then traced, on two fresh fleets.
    let fleet = Fleet::start(store_backed, tmp).map_err(io_err)?;
    fleet.populate(cases, &g.populate)?;
    let untraced = closed_loop(
        cases,
        &g.seq,
        g.wrap,
        Limit::For(phase),
        fleet.callers(),
        None,
    );
    fleet.shutdown();
    let untraced_rps = untraced.tally.answered() as f64 / untraced.elapsed.as_secs_f64();

    let fleet = Fleet::start(store_backed, tmp).map_err(io_err)?;
    fleet.populate(cases, &g.populate)?;
    let before = fleet.counters();
    let gw = ph.run("gateway.request", |span| {
        closed_loop(
            cases,
            &g.seq,
            g.wrap,
            Limit::For(phase),
            fleet.callers(),
            span,
        )
    });
    let counted = Deltas {
        before,
        after: fleet.counters(),
    };
    fleet.shutdown();
    let k = gw.requests();
    let traced_rps = gw.tally.answered() as f64 / gw.elapsed.as_secs_f64();
    notes.push(format!(
        "gateway phases: untraced {} requests in {:.2} s, traced {k} requests in {:.2} s; inner levels replay those {k}",
        untraced.requests(),
        untraced.elapsed.as_secs_f64(),
        gw.elapsed.as_secs_f64()
    ));

    // Loopback server level.
    let servers = start_servers(store_backed, tmp).map_err(io_err)?;
    let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
    let direct = clients(&addrs)?;
    populate(
        direct
            .into_iter()
            .map(|mut c| move |case: &Case| c.request(&case.request))
            .collect(),
        cases,
        &g.populate,
    )?;
    let callers = (0..CLIENTS)
        .map(|_| clients(&addrs).map(NetCaller))
        .collect::<Result<_, _>>()?;
    ph.run("net.request", |span| {
        closed_loop(cases, &g.seq, g.wrap, Limit::Count(k), callers, span)
    });
    for s in servers {
        let _ = s.shutdown();
    }

    // In-process service level.
    let services = start_services(store_backed, tmp);
    populate(
        services
            .iter()
            .map(|svc| move |case: &Case| Ok(svc.submit(case.request.clone())))
            .collect(),
        cases,
        &g.populate,
    )?;
    let callers = (0..CLIENTS).map(|_| ServiceCaller(&services)).collect();
    ph.run("service.request", |span| {
        closed_loop(cases, &g.seq, g.wrap, Limit::Count(k), callers, span)
    });
    for s in &services {
        s.shutdown();
    }

    // Codebook level (cache, delta engine, codes).
    let level = CodebookLevel::start(store_backed, tmp)?;
    populate(
        (0..REPLICAS)
            .map(|r| {
                let level = &level;
                move |case: &Case| Ok(level.call(r, case, &mut Recorder::new(false)))
            })
            .collect(),
        cases,
        &g.populate,
    )?;
    let callers = (0..CLIENTS).map(|_| CodebookCaller(&level)).collect();
    ph.run("codebook.request", |span| {
        closed_loop(cases, &g.seq, g.wrap, Limit::Count(k), callers, span)
    });

    // Answers still unchecked (cold_construct) are checked against the
    // reference now, for every level at once.
    let mut tally = Tally::default();
    let pending: BTreeSet<u32> = ph
        .results
        .iter()
        .flat_map(|r| r.pending.iter().map(|(i, _)| *i))
        .collect();
    let pending: Vec<u32> = pending.into_iter().collect();
    let checked: HashMap<u32, Case> = reference.cases(g, &pending)?.into_iter().collect();
    for r in &mut ph.results {
        settle(r, &checked);
        tally.merge(&r.tally);
    }
    let mut all_cases: Vec<&Case> = cases.iter().collect();
    for (&i, c) in &checked {
        all_cases[i as usize] = c;
    }

    let books = std::mem::take(&mut *level.books.lock().expect("book list poisoned")).books;
    let mut m = Metrics::default();
    let spans: Vec<Span> = ph.spans().cloned().collect();
    let p50 = |name| p50_span(&spans, name);
    let d = |f| counted.replicas(f);
    let gd = |f| counted.gateway(f);

    m.put(
        "gateway.tax_p50_us",
        (p50("gateway.request") - p50("net.request")) / 1e3,
    );
    m.put(
        "gateway.hedges_per_request",
        ratio(gd(|s| s.hedges_issued), gd(|s| s.requests)),
    );
    m.put(
        "gateway.hedge_win_ratio",
        ratio(gd(|s| s.hedges_won), gd(|s| s.hedges_issued)),
    );
    m.put(
        "gateway.off_home_ratio",
        ratio(gd(|s| s.failovers), gd(|s| s.requests)),
    );
    m.put("gateway.retries", gd(|s| s.retries) as f64);
    m.put(
        "net.tax_p50_us",
        (p50("net.request") - p50("service.submit")) / 1e3,
    );
    let (req_ns, resp_ns) = frame_ns(g, &all_cases);
    m.put("frame.request_ns", req_ns);
    m.put("frame.response_ns", resp_ns);
    m.put("server.submit_p50_us", p50("service.submit") / 1e3);
    m.put(
        "server.queue_batch_us",
        (p50("service.submit") - p50("codebook.request")) / 1e3,
    );
    m.put(
        "server.mean_batch",
        ratio(d(|s| s.batched_requests), d(|s| s.batches)),
    );
    m.put(
        "server.latency_mean_us",
        ratio(d(|s| s.latency_us_total), d(|s| s.batched_requests)),
    );
    m.put("server.busy", d(|s| s.busy) as f64);
    m.put("server.expired", d(|s| s.expired) as f64);
    m.put("codebook.hit_p50_ns", hit_ns(&books));
    m.put(
        "codebook.tier0_hit_ratio",
        ratio(d(|s| s.cache_hits), d(|s| s.cache_hits + s.cache_misses)),
    );
    let distinct: HashSet<u64> = (0..k)
        .map(|i| &all_cases[g.seq[i % g.seq.len()] as usize])
        .filter(|c| !matches!(c.request, Request::EncodeDelta { .. }))
        .map(|c| c.route_key)
        .collect();
    m.put(
        "codebook.constructions_per_distinct",
        ratio(d(|s| s.constructions), distinct.len() as u64),
    );
    m.put("codebook.evictions", d(|s| s.cache_evictions) as f64);
    store_metrics(&mut m, &books, tmp)?;
    m.put(
        "store.tier1_hit_ratio",
        ratio(d(|s| s.tier1_hits), d(|s| s.tier1_hits + s.constructions)),
    );
    m.put("store.promotions", d(|s| s.tier1_promotions) as f64);
    m.put("store.errors", d(|s| s.store_errors) as f64);
    codec_metrics(&mut m, seed);
    codes_metrics(&mut m, &books);
    m.put("delta.apply_p50_us", p50("delta.apply") / 1e3);
    m.put(
        "delta.patched_ratio",
        ratio(d(|s| s.delta_patched), d(|s| s.delta_requests)),
    );
    m.put("delta.unknown_base", d(|s| s.delta_unknown_base) as f64);
    m.put(
        "trace.overhead_pct",
        (untraced_rps - traced_rps) / untraced_rps * 100.0,
    );
    Ok(TraceOut {
        metrics: m,
        tally,
        spans,
        notes,
        gateway_phase: counted,
        gateway_requests: k,
    })
}

/// Median of `reps` timings of `f`, in ns.
fn time_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut t: Vec<u64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    median(&mut t)
}

/// Encode plus decode of the workload's own request and response
/// frames: the median over up to 256 distinct requests in sequence
/// order.
fn frame_ns(g: &Generated, cases: &[&Case]) -> (f64, f64) {
    let mut seen = HashSet::new();
    let picks: Vec<&Case> = g
        .seq
        .iter()
        .filter(|&&i| seen.insert(i))
        .take(256)
        .map(|&i| cases[i as usize])
        .collect();
    let (mut req, mut resp) = (Vec::new(), Vec::new());
    for c in picks {
        req.push(time_ns(9, || {
            let frame = encode_request(7, &c.request);
            let raw = read_frame(&mut frame.as_slice())
                .expect("own frame reads")
                .expect("one frame");
            black_box(decode_request(raw.opcode, &raw.body).expect("own request decodes"));
        }));
        let response = match &c.expected {
            Some(Expected::Bits { bit_len, data }) => Response::Encoded {
                bit_len: *bit_len,
                data: data.clone(),
            },
            Some(Expected::Payload(p)) => Response::Decoded { payload: p.clone() },
            None => continue,
        };
        resp.push(time_ns(9, || {
            let frame = encode_response(7, &response);
            let raw = read_frame(&mut frame.as_slice())
                .expect("own frame reads")
                .expect("one frame");
            black_box(decode_response(raw.opcode, &raw.body).expect("own response decodes"));
        }));
    }
    (median(&mut req) as f64, median(&mut resp) as f64)
}

/// `get_or_build` on resident keys: up to eight of the workload's books
/// (no more than one shard holds, so none is evicted) adopted into a
/// fresh cache of the default shape, each looked up 64 times.
fn hit_ns(books: &[(Arc<Codebook>, Vec<u8>)]) -> f64 {
    let cfg = ServiceConfig::default();
    let cache = CodebookCache::new(cfg.cache_shards, cfg.cache_capacity);
    let resident: Vec<&Arc<Codebook>> = books
        .iter()
        .map(|(b, _)| b)
        .take(cfg.cache_capacity / cfg.cache_shards)
        .filter(|b| cache.adopt(&b.histogram, b.family, b.lengths.clone()))
        .collect();
    let mut t = Vec::new();
    for _ in 0..64 {
        for b in &resident {
            t.push(time_ns(1, || {
                black_box(
                    cache
                        .get_or_build(&b.histogram, b.family, &CostTracer::disabled())
                        .expect("resident"),
                );
            }));
        }
    }
    median(&mut t) as f64
}

/// `LogStore` `put_tagged` then `get_tagged` of the workload's records
/// (the store bodies of every codebook the workload resolved) on a
/// fresh store with the default configuration.
fn store_metrics(
    m: &mut Metrics,
    books: &[(Arc<Codebook>, Vec<u8>)],
    tmp: &TmpRoot,
) -> Result<(), String> {
    let dir = tmp.fresh_dir("store");
    let store = LogStore::open(&dir, LogConfig::default()).map_err(|e| e.to_string())?;
    let records: Vec<(u64, u8, Vec<u8>)> = books
        .iter()
        .map(|(b, _)| (b.key, b.family.tag(), b.to_store_body()))
        .collect();
    let mut put = Vec::new();
    for (key, tag, body) in &records {
        let t0 = Instant::now();
        store
            .put_tagged(*key, *tag, body)
            .map_err(|e| e.to_string())?;
        put.push(t0.elapsed().as_nanos() as u64);
    }
    let mut get = Vec::new();
    for (key, tag, body) in &records {
        let t0 = Instant::now();
        let got = store.get_tagged(*key).map_err(|e| e.to_string())?;
        get.push(t0.elapsed().as_nanos() as u64);
        if got.as_ref() != Some(&(*tag, body.clone())) {
            return Err(format!("store returned a different record for {key:#018x}"));
        }
    }
    store.sync().map_err(|e| e.to_string())?;
    let disk: u64 = std::fs::read_dir(&dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|md| md.len())
        .sum();
    m.put("store.get_p50_us", median(&mut get) as f64 / 1e3);
    m.put("store.put_p50_us", median(&mut put) as f64 / 1e3);
    m.put("store.segments", store.segment_count() as f64);
    m.put("store.compactions", store.compactions() as f64);
    m.put(
        "store.disk_bytes_per_live_record",
        ratio(disk, store.len() as u64),
    );
    Ok(())
}

/// Families and alphabets of the `codecs.*.lengths_us` metrics.
const CODEC_GRID: [(FamilyId, usize); 11] = [
    (FamilyId::Huffman, 16),
    (FamilyId::Huffman, 64),
    (FamilyId::Huffman, 256),
    (FamilyId::ShannonFano, 16),
    (FamilyId::ShannonFano, 64),
    (FamilyId::ShannonFano, 256),
    (FamilyId::Minimax, 16),
    (FamilyId::Minimax, 64),
    (FamilyId::Minimax, 256),
    (FamilyId::ChoosableEdge, 8),
    (FamilyId::ChoosableEdge, 16),
];

/// Each family's `lengths` at each alphabet (median of two calls on
/// each of three seeded histograms) inside a service-like pool, the
/// Huffman pipeline's traced work and depth at n = 256, and the
/// executor's counters per n = 256 Huffman construction.
fn codec_metrics(m: &mut Metrics, seed: u64) {
    let pool = service_pool();
    let mut rng = Rng::stream(seed, 4);
    for (fam, n) in CODEC_GRID {
        let hists: Vec<Vec<u32>> = (0..3)
            .map(|_| zipf_payload(&mut rng, n, 4096).0.counts().to_vec())
            .collect();
        let mut us = Vec::new();
        let before = partree_exec::global_snapshot();
        for h in &hists {
            for _ in 0..2 {
                let t0 = Instant::now();
                black_box(
                    pool.install(|| family(fam).lengths(h))
                        .expect("a valid histogram"),
                );
                us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        let after = partree_exec::global_snapshot();
        m.put(
            &format!("codecs.{}.lengths_us.n{n}", fam.name()),
            median_f64(&us),
        );
        if (fam, n) == (FamilyId::Huffman, 256) {
            let per = |a: u64, b: u64| (a - b) as f64 / us.len() as f64;
            m.put("exec.steals", per(after.steals, before.steals));
            m.put("exec.parks", per(after.parks, before.parks));
            m.put(
                "exec.blocks",
                per(after.blocks_executed, before.blocks_executed),
            );
            let weights: Vec<f64> = hists[0].iter().map(|&c| f64::from(c)).collect();
            let tracer = CostTracer::new();
            partree_huffman::parallel::huffman_parallel_traced(&weights, &tracer)
                .expect("a valid histogram");
            let wd = tracer.aggregate();
            m.put("huffman.work.n256", wd.work as f64);
            m.put("huffman.depth.n256", wd.depth as f64);
        }
    }
}

/// `Codebook::encode`/`decode` per payload byte on the workload's own
/// codebooks and payloads (median over up to 64 of them).
fn codes_metrics(m: &mut Metrics, books: &[(Arc<Codebook>, Vec<u8>)]) {
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for (book, payload) in books.iter().take(64) {
        let bytes = payload.len().max(1) as f64;
        let (data, bits) = book.encode(payload).expect("own payload encodes");
        enc.push(
            time_ns(5, || {
                black_box(book.encode(payload).expect("own payload encodes"));
            }) as f64
                / bytes,
        );
        dec.push(
            time_ns(5, || {
                black_box(book.decode(&data, bits).expect("own encoding decodes"));
            }) as f64
                / bytes,
        );
    }
    m.put("codes.encode_ns_per_byte", median_f64(&enc));
    m.put("codes.decode_ns_per_byte", median_f64(&dec));
}

/// Writes the spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
