//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <hot_tier0|cold_construct|drift_tier1> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts two `Server::bind` replicas and a `Gateway::start` in this
//! process and drives the workload through `Gateway::request` as a
//! closed loop of two client threads. Every response is checked against
//! a direct in-process `Service`. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` replays the workload through each layer and
//! prints the per-layer metrics, writing its spans under `.perfbench/`.
//! The last line of standard output is the JSON result.

mod check;
mod drive;
mod env;
mod fleet;
mod layers;
mod metrics;
mod rng;
mod stats;
mod workload;

use check::{Case, Reference, Tally};
use drive::{closed_loop, settle, Limit, LoopResult};
use fleet::{Deltas, Fleet, TmpRoot, RUN_DIR};
use metrics::{Metrics, END_TO_END, PER_LAYER};
use stats::{median_f64, peak_rss_mb, ratio, windowed_latency, windowed_rate};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};
use workload::{generate, Generated, Scale, Workload, CLIENTS, REPLICAS};

/// Before the measured fleet, an end-to-end run sets up and shuts down
/// spare fleets while those took under `SETUP_BUDGET_S` in total (at
/// most `SPARE_SETUPS`). `setup_s` is the median over every set-up.
const SPARE_SETUPS: usize = 14;
const SETUP_BUDGET_S: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => seconds = Some(val.parse().map_err(|_| format!("bad seconds {val}"))?),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be a positive integer")?,
        trace,
    })
}

fn main() {
    // Before any thread exists: the fleet must run its defaults, and
    // every thread shares one allocator arena.
    let scrubbed = env::scrub();
    let arenas = env::pin_malloc_arenas();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let code = match run(&args, &scrubbed, arenas) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Runs one workload; `Ok(correct)` once the result line is printed.
fn run(args: &Args, scrubbed: &[String], arenas: &str) -> Result<bool, String> {
    let w = args.workload;
    println!(
        "provenance: git_rev={} nproc={} transport={} fsync={} malloc_arenas={arenas} seed={} seconds={} trace={}",
        env::git_rev(),
        env::nproc(),
        env::transport(),
        env::fsync_policy(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "environment: scrubbed {}",
        if scrubbed.is_empty() {
            "no PARTREE_* or RAYON_NUM_THREADS variables".to_string()
        } else {
            scrubbed.join(",")
        }
    );
    println!(
        "workload: {} — {REPLICAS} {} replicas behind one gateway, closed loop of {CLIENTS} client threads",
        w.name(),
        if w.store_backed() { "store-backed" } else { "memory-only" }
    );
    let tmp = TmpRoot::create().map_err(|e| format!("scratch directory under {RUN_DIR}: {e}"))?;
    let g = generate(w, args.seed, Scale::for_seconds(args.seconds));
    println!(
        "inputs: {} distinct requests, sequence of {}, fingerprint {:016x}",
        g.specs.len(),
        g.seq.len(),
        g.fingerprint_hash()
    );
    let reference = Reference::start(&g, &tmp);
    let cases = reference_cases(&g, &reference)?;
    let correct = if args.trace {
        traced(args, &g, &cases, &reference, &tmp)?
    } else {
        end_to_end(args, &g, &cases, &reference, &tmp)?
    };
    reference.shutdown();
    Ok(correct)
}

/// The concrete cases, checked against the reference up front except
/// those the generator leaves for after the measured phase.
fn reference_cases(g: &Generated, reference: &Reference) -> Result<Vec<Case>, String> {
    let now: Vec<u32> = (0..g.check_after as u32).collect();
    let mut cases: Vec<Case> = reference
        .cases(g, &now)?
        .into_iter()
        .map(|(_, c)| c)
        .collect();
    cases.extend(g.specs[g.check_after..].iter().map(Case::unchecked));
    Ok(cases)
}

/// Settles a loop's unchecked answers against the reference.
fn settle_pending(
    g: &Generated,
    reference: &Reference,
    res: &mut LoopResult,
) -> Result<(), String> {
    let idxs: Vec<u32> = res.pending.iter().map(|(i, _)| *i).collect();
    let checked: HashMap<u32, Case> = reference.cases(g, &idxs)?.into_iter().collect();
    settle(res, &checked);
    Ok(())
}

fn tally_line(t: &Tally) -> String {
    format!(
        "requests: attempted={} succeeded={} failed={} (mismatch={} busy={} timeout={} unknown_base={} error={} transport={})",
        t.attempted,
        t.matched,
        t.failed(),
        t.mismatched,
        t.busy,
        t.timeout,
        t.unknown_base,
        t.error,
        t.transport
    )
}

/// The structural assertions on the fleet's counters over the first
/// `requests` of the sequence: each workload still exercises the layers
/// it exists for. Prints the counters; returns the failures.
fn structural(g: &Generated, d: &Deltas, requests: usize) -> Vec<String> {
    println!(
        "counters: constructions={} tier0_hits={} tier1_hits={} promotions={} evictions={} delta_requests={} delta_patched={} delta_fallbacks={} store_errors={}",
        d.replicas(|s| s.constructions),
        d.replicas(|s| s.cache_hits),
        d.replicas(|s| s.tier1_hits),
        d.replicas(|s| s.tier1_promotions),
        d.replicas(|s| s.cache_evictions),
        d.replicas(|s| s.delta_requests),
        d.replicas(|s| s.delta_patched),
        d.replicas(|s| s.delta_fallbacks),
        d.replicas(|s| s.store_errors)
    );
    let distinct = (0..requests)
        .map(|k| g.seq[k % g.seq.len()])
        .collect::<HashSet<u32>>()
        .len() as u64;
    let mut fails = Vec::new();
    let mut need = |ok: bool, what: String| {
        if !ok {
            fails.push(what);
        }
    };
    match g.workload {
        Workload::HotTier0 => {
            let c = d.replicas(|s| s.constructions);
            need(c == 0, format!("constructions {c} != 0"));
            let t1 = d.replicas(|s| s.tier1_hits);
            need(t1 == 0, format!("tier-1 reads {t1} != 0"));
        }
        Workload::ColdConstruct => {
            let c = d.replicas(|s| s.constructions);
            need(
                c >= distinct,
                format!("constructions {c} < distinct histograms {distinct}"),
            );
            let store = d.replicas(|s| s.tier1_hits + s.tier1_promotions + s.store_errors);
            need(store == 0, format!("store touched ({store} tier-1 events)"));
        }
        Workload::DriftTier1 => {
            let u = d.replicas(|s| s.delta_unknown_base);
            need(u == 0, format!("delta_unknown_base {u}"));
            let e = d.replicas(|s| s.store_errors);
            need(e == 0, format!("store_errors {e}"));
            need(d.replicas(|s| s.tier1_hits) > 0, "no tier-1 hits".into());
            need(
                d.replicas(|s| s.delta_patched) > 0,
                "no patched deltas".into(),
            );
        }
    }
    fails
}

/// Times one fleet set-up: start plus working-set population.
fn set_up(
    g: &Generated,
    cases: &[Case],
    tmp: &TmpRoot,
    setups: &mut Vec<f64>,
) -> Result<Fleet, String> {
    let t0 = Instant::now();
    let fleet = Fleet::start(g.workload.store_backed(), tmp).map_err(|e| e.to_string())?;
    fleet.populate(cases, &g.populate)?;
    setups.push(t0.elapsed().as_secs_f64());
    Ok(fleet)
}

fn end_to_end(
    args: &Args,
    g: &Generated,
    cases: &[Case],
    reference: &Reference,
    tmp: &TmpRoot,
) -> Result<bool, String> {
    let mut setups = Vec::new();
    // Spare set-ups, so a cheap set-up is still a median of many.
    while setups.len() < SPARE_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S {
        set_up(g, cases, tmp, &mut setups)?.shutdown();
    }
    let fleet = set_up(g, cases, tmp, &mut setups)?;
    let before = fleet.counters();
    let steal_before = env::steal_ticks();
    let mut res = closed_loop(
        cases,
        &g.seq,
        g.wrap,
        Limit::For(Duration::from_secs(args.seconds)),
        fleet.callers(),
        None,
    );
    let deltas = Deltas {
        before,
        after: fleet.counters(),
    };
    // A contended host shows as steal; report it so a slow run can be
    // told from a slow program.
    if let (Some(a), Some(b)) = (steal_before, env::steal_ticks()) {
        let cpu_s = res.elapsed.as_secs_f64() * env::nproc() as f64;
        println!(
            "host: cpu steal {:.1}% of the measured phase",
            (b - a) as f64 / cpu_s
        );
    }
    fleet.shutdown();
    if !g.wrap && res.requests() >= g.seq.len() {
        println!("warning: the sequence ran out before the measured time did");
    }
    let rss = peak_rss_mb();
    settle_pending(g, reference, &mut res)?;
    let fails = structural(g, &deltas, res.requests());
    if res.requests() == 0 {
        return Err("no request completed".into());
    }
    let lat = windowed_latency(
        &res.samples,
        res.elapsed.as_nanos() as u64,
        args.seconds as usize,
    );
    println!(
        "latency: samples={} windows={} min_above_p99_per_window={} measured_s={:.3} set-ups={} setup_median_s={:.6}",
        res.requests(),
        lat.windows,
        lat.min_above_p99,
        res.elapsed.as_secs_f64(),
        setups.len(),
        median_f64(&setups)
    );
    if lat.min_above_p99 < 10 {
        println!("warning: a latency window has fewer than 10 samples above its p99");
    }
    println!("{}", tally_line(&res.tally));
    let mut m = Metrics::default();
    m.put(
        "throughput_rps",
        windowed_rate(&res.done_ns, 1_000_000_000, args.seconds as usize),
    );
    m.put("latency_p50_us", lat.p50 / 1e3);
    m.put("latency_p99_us", lat.p99 / 1e3);
    m.put("bits_per_symbol", ratio(res.bits, res.symbols));
    m.put("peak_rss_mb", rss);
    m.put("setup_s", median_f64(&setups));
    finish(&m, END_TO_END, &res.tally, &fails)
}

fn traced(
    args: &Args,
    g: &Generated,
    cases: &[Case],
    reference: &Reference,
    tmp: &TmpRoot,
) -> Result<bool, String> {
    let phase = Duration::from_secs_f64(args.seconds as f64 / 5.0);
    let out = layers::traced(g, cases, reference, phase, args.seed, tmp)?;
    let path = std::path::Path::new(RUN_DIR).join("spans").join(format!(
        "{}-seed{}.jsonl",
        g.workload.name(),
        args.seed
    ));
    layers::write_spans(&path, &out.spans)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    for n in &out.notes {
        println!("{n}");
    }
    println!("spans: {} written to {}", out.spans.len(), path.display());
    println!("{}", tally_line(&out.tally));
    let fails = structural(g, &out.gateway_phase, out.gateway_requests);
    finish(&out.metrics, PER_LAYER, &out.tally, &fails)
}

/// Prints the metric table, any failed assertion, and the result line.
fn finish(
    m: &Metrics,
    defs: &[(&str, &str)],
    tally: &Tally,
    fails: &[String],
) -> Result<bool, String> {
    print!("{}", m.table(defs));
    for f in fails {
        println!("structural assertion failed: {f}");
    }
    let correct = tally.mismatched == 0 && fails.is_empty();
    println!(
        "{}",
        m.result_line(defs, correct, tally.attempted, tally.failed())?
    );
    Ok(correct)
}
