//! The closed loop: `CLIENTS` threads, each sending its next request
//! only after the previous one answered, walking one shared seeded
//! sequence. Also the span recorder the traced run uses.

use crate::check::{encoded_bits, judge, Case, Tally, Verdict};
use crate::workload::CLIENTS;
use partree_service::frame::Response;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// The span that caused this one (0: none).
    pub parent: u64,
    /// Position of the request in the sequence.
    pub request: u64,
    /// Nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

pub fn span_id() -> u64 {
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub fn since_epoch(t: Instant) -> u64 {
    t.duration_since(epoch()).as_nanos() as u64
}

/// Collects spans for one client thread; a no-op when tracing is off.
pub struct Recorder {
    on: bool,
    request: u64,
    parent: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            request: 0,
            parent: 0,
            spans: Vec::new(),
        }
    }

    /// Records a child of the current request's span.
    pub fn child(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                name,
                id: span_id(),
                parent: self.parent,
                request: self.request,
                start_ns: since_epoch(start),
                end_ns: since_epoch(end),
            });
        }
    }
}

/// One layer's entry point, as a client thread calls it.
pub trait Caller: Send {
    fn call(&mut self, case: &Case, rec: &mut Recorder) -> io::Result<Response>;
}

/// How long a loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    For(Duration),
    /// Exactly the first `n` requests of the sequence.
    Count(usize),
}

/// What one loop measured.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Every request's completion time since the start and its
    /// client-side latency, in ns, ordered by completion.
    pub samples: Vec<(u64, u64)>,
    pub elapsed: Duration,
    pub tally: Tally,
    /// Encoded bits and payload symbols over successful encodes.
    pub bits: u64,
    pub symbols: u64,
    /// Responses to cases with no expected answer yet.
    pub pending: Vec<(u32, Response)>,
    pub spans: Vec<Span>,
    /// Completion time of every answered request, ns since the start.
    pub done_ns: Vec<u64>,
}

impl LoopResult {
    /// Requests run: the first this many positions of the sequence.
    pub fn requests(&self) -> usize {
        self.samples.len()
    }

    /// Adds another client thread's results.
    fn merge(&mut self, o: LoopResult) {
        self.samples.extend(o.samples);
        self.done_ns.extend(o.done_ns);
        self.tally.merge(&o.tally);
        self.bits += o.bits;
        self.symbols += o.symbols;
        self.pending.extend(o.pending);
        self.spans.extend(o.spans);
    }
}

/// Drives `seq` through one caller per client thread. With `span` set,
/// every request gets a span of that name under `root` (children come
/// from the caller).
pub fn closed_loop<C: Caller>(
    cases: &[Case],
    seq: &[u32],
    wrap: bool,
    limit: Limit,
    callers: Vec<C>,
    span: Option<(&'static str, u64)>,
) -> LoopResult {
    assert_eq!(callers.len(), CLIENTS);
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let (end_by, count) = match limit {
        Limit::For(d) => (Some(start + d), usize::MAX),
        Limit::Count(n) => (None, n),
    };
    let max = if wrap { count } else { count.min(seq.len()) };
    let parts: Vec<(LoopResult, Instant)> = std::thread::scope(|s| {
        let workers: Vec<_> = callers
            .into_iter()
            .map(|mut caller| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut out = LoopResult::default();
                    let mut rec = Recorder::new(span.is_some());
                    let mut last = start;
                    loop {
                        if end_by.is_some_and(|e| last >= e) {
                            break;
                        }
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        if k >= max {
                            break;
                        }
                        let idx = seq[k % seq.len()];
                        let case = &cases[idx as usize];
                        let id = if span.is_some() { span_id() } else { 0 };
                        rec.request = k as u64;
                        rec.parent = id;
                        let t0 = Instant::now();
                        let outcome = caller.call(case, &mut rec);
                        let t1 = Instant::now();
                        last = t1;
                        let end_ns = (t1 - start).as_nanos() as u64;
                        out.samples.push((end_ns, (t1 - t0).as_nanos() as u64));
                        if let Some((name, root)) = span {
                            rec.spans.push(Span {
                                name,
                                id,
                                parent: root,
                                request: k as u64,
                                start_ns: since_epoch(t0),
                                end_ns: since_epoch(t1),
                            });
                        }
                        let verdict = judge(case.expected.as_ref(), &outcome);
                        out.tally.add(verdict);
                        if matches!(verdict, Verdict::Match | Verdict::Pending) {
                            out.done_ns.push(end_ns);
                        }
                        if let Ok(resp) = outcome {
                            if let (Some(bits), true) =
                                (encoded_bits(&resp), verdict != Verdict::Mismatch)
                            {
                                out.bits += bits;
                                out.symbols += case.symbols;
                            }
                            if verdict == Verdict::Pending {
                                out.pending.push((idx, resp));
                            }
                        }
                    }
                    out.spans = rec.spans;
                    (out, last)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = LoopResult::default();
    let mut finish = start;
    for (part, last) in parts {
        finish = finish.max(last);
        all.merge(part);
    }
    all.samples.sort_unstable();
    all.elapsed = finish - start;
    all
}

/// Set-up: replica `r` answers every populate case through
/// `per_replica[r]`, so each replica holds the whole working set (a
/// hedge or failover never lands on a replica that lacks a key). Fails
/// on any wrong answer.
pub fn populate<F>(per_replica: Vec<F>, cases: &[Case], idxs: &[u32]) -> Result<(), String>
where
    F: FnMut(&Case) -> io::Result<Response> + Send,
{
    std::thread::scope(|s| {
        let workers: Vec<_> = per_replica
            .into_iter()
            .enumerate()
            .map(|(r, mut call)| {
                s.spawn(move || -> Result<(), String> {
                    for &i in idxs {
                        let case = &cases[i as usize];
                        let outcome = call(case);
                        let v = judge(case.expected.as_ref(), &outcome);
                        if v != Verdict::Match {
                            return Err(format!(
                                "set-up request {i} on replica {r}: {v:?} ({outcome:?})"
                            ));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("set-up worker panicked"))
    })
}

/// Judges the responses `res` could not check during the loop against
/// the reference's `checked` cases.
pub fn settle(res: &mut LoopResult, checked: &HashMap<u32, Case>) {
    for (i, resp) in std::mem::take(&mut res.pending) {
        let v = judge(checked.get(&i).and_then(|c| c.expected.as_ref()), &Ok(resp));
        // A case the reference could not answer stays a mismatch.
        res.tally.settle(if v == Verdict::Pending {
            Verdict::Mismatch
        } else {
            v
        });
    }
}
