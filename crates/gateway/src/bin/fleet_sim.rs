//! `fleet-sim [service|gateway|store|codecs|delta|<seed>]...`: one seeded,
//! replayable fleet simulator for the serving stack.
//!
//! A codebook is a deterministic function of its histogram (the Thm 5.1
//! pipeline gives the same lengths at any width), so every answer the
//! fleet serves must equal a direct in-process run byte for byte, however
//! replicas are killed, restarted, slowed or loaded. The simulator starts
//! an in-process fleet and runs a schedule, a plain list of [`Step`]s. After
//! every step it checks that every success matched the direct run, that
//! the gateway's counters add up (`requests == completed +
//! deadline_exceeded + retries_exhausted`), that no live replica answered
//! `UnknownBase` or fell back from a delta patch to a rebuild, and the
//! step's own postconditions. At the end threads and fds must be back at
//! their baseline.
//!
//! With no arguments it runs the five named schedules; a number is a seed
//! ([`generate`]). Each run prints its step list first, and a failure
//! prints `replay: fleet-sim <arg>`, which rebuilds the same step list.

use partree_exec::procfs::Baseline;
use partree_gateway::{BreakerState, Gateway, GatewayConfig, GatewaySnapshot};
use partree_service::frame::{ErrorCode, Histogram, Request, Response};
use partree_service::{Client, FamilyId, Server, Service, ServiceConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const NAMED: [&str; 5] = ["service", "gateway", "store", "codecs", "delta"];
/// How long a fleet may take to notice a kill, or to warm and re-admit a
/// restarted replica.
const SETTLE: Duration = Duration::from_secs(15);
/// Pause before each request of a load with a kill, which lands halfway
/// through the load's paced length, so the load spans it.
const PACE: Duration = Duration::from_millis(3);
/// Reply delay of a slowed replica: far past the hedge threshold.
const SLOW_MS: u64 = 150;

/// Drift workload: a base shape with pairwise-distinct counts and merge
/// sums (the regime where the Huffman patch rule is exact), scaled per
/// base, and drifts that stay inside the default bound.
const BASE_SHAPE: [u32; 8] = [610, 310, 160, 80, 40, 21, 11, 5];
const DRIFTS: [&[(u16, i32)]; 3] = [&[(0, 60), (3, -9)], &[(1, -40), (5, 4)], &[(2, 30)]];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    /// 24 Huffman items over alphabets of 2 to 256 symbols.
    Huffman,
    /// The same shapes cycling all four code families.
    Families,
    /// 6 bases × 3 sparse drifts, sent as `EncodeDelta` against the base
    /// key, over the two patch-capable families.
    Drift,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Fleet {
    replicas: usize,
    store: bool,
    gateway: bool,
    /// Off: the gateway never hedges, and opens a breaker on one failure.
    hedge: bool,
    workload: Workload,
}

fn fleet(replicas: usize, store: bool, gateway: bool, hedge: bool, workload: Workload) -> Fleet {
    Fleet {
        replicas,
        store,
        gateway,
        hedge,
        workload,
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Step {
    /// One pass over the workload, an encode and a decode per item (a
    /// drift fleet's first pass seeds the bases first).
    Drive,
    /// Delays the replica's codec replies by `SLOW_MS` and drives one
    /// pass; a hedge must be issued and win.
    Slow(usize),
    Unslow(usize),
    /// Shuts the replica down; the gateway must open its breaker.
    Kill(usize),
    /// `Restart(r, warm)` starts killed replica `r` on its old store
    /// directory and address (with a one-entry tier 0 on store-backed
    /// Huffman and family fleets). The gateway must re-admit it, having
    /// donated keys to it when `warm`.
    Restart(usize, bool),
    /// Drives two passes; the restarted replica must serve traffic with 0
    /// constructions and 0 store errors, and read its log when its tier 0
    /// is tiny.
    Revived(usize),
    /// `Load(clients, requests, kill)`: each client thread runs `requests`
    /// roundtrips through the gateway (or straight to replica 0 without
    /// one); ≥ 99 % must succeed. Replica `kill` dies partway; on a
    /// hedging fleet, whose breakers open only after three failures, the
    /// gateway must retry. (With hedging off one failed probe opens the
    /// breaker, so traffic may never reach the dead replica.)
    Load(usize, usize, Option<usize>),
}

use Step::*;
use Workload::*;

/// One named schedule per serving subsystem: direct service traffic,
/// gateway hedging and failover, and a kill/restart onto the same store
/// for Huffman, all four families, and drifting deltas.
fn named(name: &str) -> Option<(Fleet, Vec<Step>)> {
    let restart = [Drive, Kill(0), Drive, Restart(0, true), Revived(0)];
    Some(match name {
        "service" => (
            fleet(1, false, false, false, Huffman),
            vec![Load(8, 125, None)],
        ),
        "gateway" => (
            fleet(3, false, true, true, Huffman),
            vec![Drive, Slow(2), Unslow(2), Load(6, 80, Some(1))],
        ),
        "store" => (fleet(3, true, true, false, Huffman), restart.to_vec()),
        "codecs" => (fleet(3, true, true, false, Families), restart.to_vec()),
        "delta" => (
            fleet(2, true, true, false, Drift),
            vec![Drive, Kill(0), Restart(0, true), Revived(0)],
        ),
        _ => return None,
    })
}

/// xorshift64, the generator every workload and schedule draws from.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// Draws a fleet (2–3 replicas, store-backed or not, a workload, hedging
/// on or off) and 4–8 steps from `seed`, keeping to schedules whose
/// postconditions hold on a correct fleet:
///
/// * it never kills the last live replica, and restarts only a killed one;
/// * it expects a warm-up donation only on a fleet's first restart, after
///   a drive since the last kill left donors holding the replica's keys;
/// * it draws `Revived` right after a restart on a store-backed fleet with
///   hedging off and every replica up, once the replica's log holds its
///   keys from an earlier pass;
/// * a hedged or failed-over delta lands on a replica without its base,
///   so drift fleets are store-backed, never hedge, and send deltas only
///   while every replica is up and warmed;
/// * it slows a replica only with hedging on, right after a plain drive
///   (so the latency average is fresh), and unslows it before any kill.
fn generate(seed: u64) -> (Fleet, Vec<Step>) {
    let mut rng = Rng::new(seed);
    let workload = [Huffman, Families, Drift][rng.below(3)];
    let drift = workload == Drift;
    let n = 2 + rng.below(2);
    let (store, hedge) = (drift || rng.below(2) == 0, !drift && rng.below(2) == 0);
    let fleet = fleet(n, store, true, hedge, workload);
    let len = 4 + rng.below(5);
    let (mut live, mut logged, mut donors) = (vec![true; n], vec![false; n], vec![false; n]);
    let (mut slow, mut seeded, mut restarted) = (None, false, false);
    let mut steps: Vec<Step> = Vec::new();
    while steps.len() < len {
        let up = live.iter().filter(|&&l| l).count();
        let mut pool = Vec::new();
        if !drift || up == n {
            pool.push(Drive);
        }
        if !drift || (up == n && seeded) {
            pool.push(Load(4, 40, None));
        }
        for r in 0..n {
            if live[r] && up > 1 && slow.is_none() {
                pool.push(Kill(r));
                if !drift {
                    pool.push(Load(4, 40, Some(r)));
                }
            }
            if !live[r] {
                pool.push(Restart(r, !drift && !restarted && donors[r]));
            }
            if hedge && slow.is_none() && live[r] && up > 1 && steps.last() == Some(&Drive) {
                pool.push(Slow(r));
            }
            if slow == Some(r) {
                pool.push(Unslow(r));
            }
        }
        let step = match steps.last() {
            Some(&Restart(r, _)) if store && !hedge && up == n && logged[r] => Revived(r),
            _ => pool[rng.below(pool.len())].clone(),
        };
        match step {
            Drive | Slow(_) | Revived(_) => {
                seeded = true;
                for r in 0..n {
                    logged[r] |= live[r];
                    donors[r] |= !live[r];
                }
                if let Slow(r) = step {
                    slow = Some(r);
                }
            }
            Unslow(_) => slow = None,
            Kill(r) | Load(_, _, Some(r)) => {
                live[r] = false;
                donors = vec![false; n];
            }
            Restart(r, _) => (live[r], restarted) = (true, true),
            Load(..) => {}
        }
        steps.push(step);
    }
    (fleet, steps)
}

/// One workload item: its encode and decode, each with the answer a
/// direct service gave.
struct Item {
    /// Drift items only: the full encode that makes the base resident.
    seed: Option<Request>,
    calls: [(Request, Response); 2],
}

/// Deterministic payload over `n` symbols, led by one of each symbol so
/// every histogram count is nonzero.
fn payload(n: usize, seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut out: Vec<u8> = (0..n as u16).map(|s| s as u8).collect();
    out.extend((0..len).map(|_| rng.below(n) as u8));
    out
}

/// Builds the workload and answers every item (a drift item from
/// scratch, on the drifted histogram) on a direct, socket-free service.
fn items(workload: Workload) -> Result<Vec<Item>, String> {
    let hist = |counts| Histogram::new(counts).map_err(|e| format!("{e:?}"));
    let mut specs = Vec::new();
    if workload == Drift {
        for (i, m) in (1..=6u32).enumerate() {
            for (j, drift) in DRIFTS.iter().enumerate() {
                let family = [FamilyId::Huffman, FamilyId::ShannonFano][(i + j) % 2];
                let deltas = drift.iter().map(|&(s, d)| (s, d * m as i32)).collect();
                let base = hist(BASE_SHAPE.iter().map(|&c| c * m).collect())?;
                specs.push((family, base, deltas, payload(8, (i * 3 + j) as u64, 88)));
            }
        }
    }
    for i in (0..24).filter(|_| workload != Drift) {
        let family = [FamilyId::Huffman, FamilyId::ALL[i % 4]][(workload == Families) as usize];
        let n = match family {
            FamilyId::ChoosableEdge => [2, 5, 16, 32][i % 4],
            _ => [2, 5, 16, 64, 256][i % 5],
        };
        let msg = payload(n, i as u64, 64 + i % 128);
        let base = Histogram::of_payload(n, &msg).map_err(|e| format!("{e:?}"))?;
        specs.push((family, base, Vec::new(), msg));
    }
    let direct = Service::start(ServiceConfig {
        store_dir: None,
        ..ServiceConfig::default()
    });
    let mut out = Vec::new();
    for (family, base, deltas, payload) in specs {
        let mut counts = base.counts().to_vec();
        for &(s, d) in &deltas {
            counts[s as usize] = counts[s as usize].saturating_add_signed(d);
        }
        let full = |histogram| Request::Encode {
            family,
            histogram,
            payload: payload.clone(),
        };
        let (bit_len, data) = match direct.submit(full(hist(counts)?)) {
            Response::Encoded { bit_len, data } => (bit_len, data),
            other => return Err(format!("direct {family} encode failed: {other:?}")),
        };
        let base_key = family.tagged_key(base.hash64());
        let (seed, encode, encoded, decode) = if deltas.is_empty() {
            let decode = Request::Decode {
                family,
                histogram: base.clone(),
                bit_len,
                data: data.clone(),
            };
            let encoded = Response::Encoded { bit_len, data };
            (None, full(base), encoded, decode)
        } else {
            let encode = Request::EncodeDelta {
                family,
                base_key,
                deltas: deltas.clone(),
                payload: payload.clone(),
            };
            let decode = Request::DecodeDelta {
                family,
                base_key,
                deltas,
                bit_len,
                data: data.clone(),
            };
            // Path 0: a patchable drift must never take the rebuild path.
            let encoded = Response::DeltaEncoded {
                path: 0,
                bit_len,
                data,
            };
            (Some(full(base)), encode, encoded, decode)
        };
        let calls = [(encode, encoded), (decode, Response::Decoded { payload })];
        out.push(Item { seed, calls });
    }
    direct.shutdown();
    Ok(out)
}

/// Returns `Err(format!(..))` from the enclosing function unless `$ok`.
macro_rules! ensure {
    ($ok:expr, $($msg:tt)+) => {
        if !$ok {
            return Err(format!($($msg)+));
        }
    };
}

/// Where a roundtrip goes: through the gateway, or straight to a replica.
enum Target {
    Gateway(Arc<Gateway>),
    Direct(Client),
}

/// Encodes then decodes `it`. `Ok(true)`: both answers equal the direct
/// run's. `Ok(false)`: the fleet shed the request (transport error, busy,
/// timeout, shutting down). `Err`: an answer broke the contract.
fn roundtrip(target: &mut Target, it: &Item) -> Result<bool, String> {
    for (req, want) in &it.calls {
        let got = match target {
            Target::Gateway(gw) => gw.request(req),
            Target::Direct(client) => client.request(req),
        };
        match got {
            Err(_) | Ok(Response::Busy | Response::Timeout) => return Ok(false),
            Ok(Response::Error {
                code: ErrorCode::ShuttingDown,
                ..
            }) => return Ok(false),
            Ok(got) => ensure!(got == *want, "answered {got:?}, want {want:?}"),
        }
    }
    Ok(true)
}

/// The in-process fleet a schedule runs against.
struct Harness {
    fleet: Fleet,
    items: Arc<Vec<Item>>,
    root: PathBuf,
    servers: Vec<Option<Server>>,
    addrs: Vec<SocketAddr>,
    gw: Option<Arc<Gateway>>,
    seeded: bool,
}

impl Harness {
    /// A restarted replica of a store-backed Huffman or family fleet gets
    /// a one-entry tier 0, so its traffic has to come off its own log.
    fn config(&self, r: usize, restarted: bool) -> ServiceConfig {
        let dir = self.root.join(format!("replica-{r}"));
        let mut cfg = ServiceConfig {
            store_dir: self.fleet.store.then_some(dir),
            ..ServiceConfig::default()
        };
        if restarted && self.fleet.store && self.fleet.workload != Drift {
            (cfg.cache_shards, cfg.cache_capacity) = (1, 1);
        }
        cfg
    }

    fn server(&self, r: usize) -> Result<&Server, String> {
        self.servers[r].as_ref().ok_or(format!("{r} is down"))
    }

    fn gw(&self) -> Result<Arc<Gateway>, String> {
        self.gw.clone().ok_or("this step needs a gateway".into())
    }

    /// Polls the gateway until `done` holds, for at most `SETTLE`.
    fn wait(&self, what: &str, done: impl Fn(&GatewaySnapshot) -> bool) -> Result<(), String> {
        let (gw, give_up) = (self.gw()?, Instant::now() + SETTLE);
        while !done(&gw.snapshot()) {
            ensure!(Instant::now() < give_up, "no {what}: {:?}", gw.snapshot());
            thread::sleep(Duration::from_millis(20));
        }
        Ok(())
    }

    fn step(&mut self, step: &Step) -> Result<(), String> {
        match *step {
            Drive => self.drive()?,
            Slow(r) => {
                let before = self.gw()?.snapshot();
                self.server(r)?.faults().set_delay_ms(SLOW_MS);
                self.drive()?;
                let s = self.gw()?.snapshot();
                let (issued, won) = (s.hedges_issued, s.hedges_won);
                let hedged = issued > before.hedges_issued && won > before.hedges_won;
                ensure!(hedged, "no winning hedge: issued {issued}, won {won}");
            }
            Unslow(r) => self.server(r)?.faults().set_delay_ms(0),
            Kill(r) => self.kill(r)?,
            Restart(r, warm) => {
                let before = self.gw()?.snapshot();
                let svc = Service::start(self.config(r, true));
                let server = Server::bind(svc, &self.addrs[r].to_string());
                self.servers[r] = Some(server.map_err(|e| format!("rebind {r}: {e}"))?);
                self.wait(&format!("re-admission of {r} (warm-up: {warm})"), |s| {
                    let keys = s.warmup_keys_sent > before.warmup_keys_sent;
                    let donated = s.warmups > before.warmups && keys;
                    s.replicas[r].breaker == BreakerState::Closed && (donated || !warm)
                })?;
            }
            Revived(r) => {
                self.drive()?;
                self.drive()?;
                let m = self.server(r)?.service().metrics();
                let drift = self.fleet.workload == Drift;
                let served = if drift { m.delta_requests } else { m.encoded };
                let clean = m.constructions == 0 && m.store_errors == 0;
                ensure!(
                    served > 0 && clean && (drift || m.tier1_hits > 0),
                    "restarted replica {r} served {served}, want > 0 with 0 constructions, \
                     0 store errors and tier-1 hits: {m:?}"
                );
            }
            Load(clients, requests, kill) => self.load(clients, requests, kill)?,
        }
        Ok(())
    }

    fn drive(&mut self) -> Result<(), String> {
        let gw = self.gw()?;
        if !std::mem::replace(&mut self.seeded, true) {
            for seed in self.items.iter().filter_map(|it| it.seed.as_ref()) {
                let resp = gw.request(seed);
                let ok = matches!(resp, Ok(Response::Encoded { .. }));
                ensure!(ok, "seeding a base: {resp:?}");
            }
        }
        let mut target = Target::Gateway(Arc::clone(&gw));
        for (i, it) in self.items.iter().enumerate() {
            ensure!(roundtrip(&mut target, it)?, "item {i} was shed");
        }
        let counts = gw.snapshot().family_requests;
        let all = self.fleet.workload != Families || !counts.contains(&0);
        ensure!(all, "a family was never routed: {counts:?}");
        Ok(())
    }

    fn kill(&mut self, r: usize) -> Result<(), String> {
        let opened = self.gw()?.snapshot().replicas[r].breaker_opened;
        let server = self.servers[r].take().ok_or("already down")?;
        server.shutdown().map_err(|e| format!("kill {r}: {e}"))?;
        self.wait(&format!("open breaker for {r}"), |s| {
            s.replicas[r].breaker_opened > opened
        })
    }

    fn load(&mut self, clients: usize, requests: usize, kill: Option<usize>) -> Result<(), String> {
        let retries = self.gw.as_ref().map(|gw| gw.snapshot().retries);
        let direct = self.server(0).map(|s| s.service().metrics());
        let pace = if kill.is_some() { PACE } else { Duration::ZERO };
        let mut workers = Vec::new();
        for c in 0..clients {
            let mut target = match &self.gw {
                Some(gw) => Target::Gateway(Arc::clone(gw)),
                None => Target::Direct(Client::connect(self.addrs[0]).map_err(|e| e.to_string())?),
            };
            let items = Arc::clone(&self.items);
            workers.push(thread::spawn(move || -> Result<(u64, u64), String> {
                let (mut ok, mut shed) = (0, 0);
                for i in 0..requests {
                    thread::sleep(pace);
                    let item = &items[(c * 7 + i) % items.len()];
                    match roundtrip(&mut target, item).map_err(|e| format!("client {c}: {e}"))? {
                        true => ok += 1,
                        false => shed += 1,
                    }
                }
                Ok((ok, shed))
            }));
        }
        if let Some(r) = kill {
            thread::sleep(PACE * requests as u32 / 2);
            self.kill(r)?;
        }
        let (mut ok, mut shed) = (0, 0);
        for w in workers {
            let (o, s) = w.join().map_err(|_| "load client panicked")??;
            (ok, shed) = (ok + o, shed + s);
        }
        let total = (clients * requests) as u64;
        ensure!(ok + shed == total, "{ok} ok + {shed} shed != {total}");
        ensure!(ok * 100 >= total * 99, "only {ok} of {total} succeeded");
        if let (Some(gw), Some(retries)) = (&self.gw, retries) {
            let moved = gw.snapshot().retries > retries;
            let expected = kill.is_some() && self.fleet.hedge;
            ensure!(moved || !expected, "the kill caused no retries");
        } else {
            let (b, m) = (direct?, self.server(0)?.service().metrics());
            let all = m.encoded - b.encoded == total && m.decoded - b.decoded == total;
            let cost = m.cache_hits > b.cache_hits && m.work > 0 && m.depth > 0;
            ensure!(all && cost, "{total} direct roundtrips, yet {m:?}");
        }
        Ok(())
    }

    /// Checks that hold after every step.
    fn check(&self) -> Result<(), String> {
        if let Some(gw) = &self.gw {
            let s = gw.snapshot();
            let ended = s.completed + s.deadline_exceeded + s.retries_exhausted;
            ensure!(s.requests == ended, "gateway counters do not add up: {s:?}");
        }
        for m in self.servers.iter().flatten().map(|s| s.service().metrics()) {
            let (u, f) = (m.delta_unknown_base, m.delta_fallbacks);
            ensure!(u + f == 0, "{u} UnknownBase answers, {f} delta fallbacks");
        }
        Ok(())
    }

    fn finish(mut self) -> Result<(), String> {
        // A gateway still shared is left running, for the leak check.
        if let Some(gw) = self.gw.take().and_then(Arc::into_inner) {
            gw.shutdown();
        }
        for server in self.servers.drain(..).flatten() {
            let dropped = server.shutdown().map_err(|e| e.to_string())?;
            ensure!(dropped == 0, "a replica dropped {dropped} queued jobs");
        }
        let _ = std::fs::remove_dir_all(&self.root);
        Ok(())
    }
}

fn run(arg: &str, fleet: &Fleet, steps: &[Step]) -> Result<(), String> {
    let baseline = Baseline::take();
    let root = std::env::temp_dir().join(format!("fleet-sim-{}-{arg}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut h = Harness {
        fleet: fleet.clone(),
        items: Arc::new(items(fleet.workload)?),
        root,
        servers: Vec::new(),
        addrs: Vec::new(),
        gw: None,
        seeded: false,
    };
    for r in 0..fleet.replicas {
        let server = Server::bind(Service::start(h.config(r, false)), "127.0.0.1:0");
        let server = server.map_err(|e| format!("bind replica {r}: {e}"))?;
        h.addrs.push(server.addr());
        h.servers.push(Some(server));
    }
    if fleet.gateway {
        let mut cfg = GatewayConfig::new(h.addrs.clone());
        cfg.probe_interval = Duration::from_millis(25);
        cfg.breaker.open_cooldown = Duration::from_millis(200);
        if !fleet.hedge {
            cfg.breaker.failure_threshold = 1;
            cfg.hedge_after_min = Duration::from_secs(5);
        }
        h.gw = Some(Arc::new(Gateway::start(cfg)));
    }
    for (i, step) in steps.iter().enumerate() {
        let done = h.step(step).and_then(|()| h.check());
        done.map_err(|e| format!("step {} {step:?}: {e}", i + 1))?;
    }
    h.finish()?;
    baseline.settle(Duration::from_secs(5))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        args = NAMED.map(String::from).to_vec();
    }
    for arg in &args {
        let Some((fleet, steps)) = named(arg).or_else(|| arg.parse().ok().map(generate)) else {
            eprintln!("usage: fleet-sim [service|gateway|store|codecs|delta|<seed>]...");
            std::process::exit(2);
        };
        println!("fleet-sim {arg}: {fleet:?}");
        for (i, step) in steps.iter().enumerate() {
            println!("  {}. {step:?}", i + 1);
        }
        let t0 = Instant::now();
        if let Err(e) = run(arg, &fleet, &steps) {
            eprintln!("fleet-sim {arg} FAILED: {e}\nreplay: fleet-sim {arg}");
            std::process::exit(1);
        }
        println!("fleet-sim {arg} OK in {:.2?}", t0.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};

    /// The first step of `steps` that breaks a rule [`generate`] promises,
    /// found by replaying which replicas are up.
    fn violation(fleet: &Fleet, steps: &[Step]) -> Option<usize> {
        let (n, drift) = (fleet.replicas, fleet.workload == Drift);
        if drift && (!fleet.store || fleet.hedge) {
            return Some(0);
        }
        let (mut live, mut slow, mut drove) = (vec![true; n], None, false);
        for (i, step) in steps.iter().enumerate() {
            let up = live.iter().filter(|&&l| l).count();
            let bad = match *step {
                Kill(r) | Load(_, _, Some(r)) => {
                    !live[r] || up < 2 || slow.is_some() || (drift && *step != Kill(r))
                }
                Restart(r, _) => live[r],
                Revived(r) => {
                    let after_restart = i > 0 && matches!(steps[i - 1], Restart(p, _) if p == r);
                    !fleet.store || fleet.hedge || up < n || !after_restart
                }
                Slow(r) => !fleet.hedge || slow.is_some() || !live[r],
                Unslow(r) => slow != Some(r),
                Drive => drift && up < n,
                Load(..) => drift && (up < n || !drove),
            };
            if bad {
                return Some(i + 1);
            }
            match *step {
                Kill(r) | Load(_, _, Some(r)) => live[r] = false,
                Restart(r, _) => live[r] = true,
                Slow(r) => slow = Some(r),
                Unslow(_) => slow = None,
                Drive => drove = true,
                _ => {}
            }
        }
        None
    }

    #[test]
    fn a_seed_always_draws_the_same_schedule() {
        for seed in [0, 1, 16, u64::MAX] {
            assert_eq!(generate(seed), generate(seed));
        }
        assert_ne!(generate(1), generate(2));
    }

    #[test]
    fn drawn_and_named_schedules_keep_the_rules() {
        for seed in 1..=256 {
            let (fleet, steps) = generate(seed);
            assert!((2..=3).contains(&fleet.replicas) && (4..=8).contains(&steps.len()));
            assert_eq!(violation(&fleet, &steps), None, "seed {seed}: {steps:?}");
        }
        for name in NAMED {
            let (fleet, steps) = named(name).unwrap();
            assert_eq!(violation(&fleet, &steps), None, "{name}");
        }
    }

    #[test]
    fn ci_seeds_draw_every_step_kind_and_workload() {
        let (mut kinds, mut workloads) = (HashSet::new(), BTreeSet::new());
        for seed in 1..=16 {
            let (fleet, steps) = generate(seed);
            workloads.insert(format!("{:?}", fleet.workload));
            for step in steps {
                let kill = matches!(step, Load(_, _, Some(_)));
                kinds.insert((std::mem::discriminant(&step), kill));
            }
        }
        assert_eq!(workloads.len(), 3, "{workloads:?}");
        assert_eq!(kinds.len(), 8, "{kinds:?}");
    }

    #[test]
    fn named_schedules_keep_their_phase_order() {
        let steps = |name| named(name).unwrap().1;
        // service: 8 clients × 125 encode+decode pairs on one replica.
        assert_eq!(steps("service"), [Load(8, 125, None)]);
        // gateway: warm pass; replica 2 slowed and hedged, then restored;
        // 6 × 80 paced load with replica 1 killed partway.
        let gateway = [Drive, Slow(2), Unslow(2), Load(6, 80, Some(1))];
        assert_eq!(steps("gateway"), gateway);
        // store and codecs: populate, kill 0, failover pass, restart 0
        // warmed on its store, two warm passes.
        let restart = [Drive, Kill(0), Drive, Restart(0, true), Revived(0)];
        assert_eq!(steps("store"), restart);
        assert_eq!(steps("codecs"), restart);
        // delta: populate, kill 0, restart 0 warmed, two recovery passes.
        let delta = [Drive, Kill(0), Restart(0, true), Revived(0)];
        assert_eq!(steps("delta"), delta);
    }
}
