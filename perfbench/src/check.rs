//! The correctness gate: concrete requests with the responses a direct
//! in-process `Service` gives for them, and the verdict on every
//! response the fleet returns.

use crate::fleet::{replica_config, TmpRoot};
use crate::workload::{Generated, Op, Spec, CLIENTS};
use partree_service::frame::{ErrorCode, Request, Response};
use partree_service::Service;
use std::sync::Mutex;

/// What a correct answer to one case looks like.
#[derive(Debug, Clone)]
pub enum Expected {
    /// Encoded bits (the codec output of an `Encode` or `EncodeDelta`).
    Bits { bit_len: u64, data: Vec<u8> },
    /// The decoded payload.
    Payload(Vec<u8>),
}

/// One concrete request of the workload.
#[derive(Debug)]
pub struct Case {
    pub request: Request,
    pub route_key: u64,
    /// Payload symbols an encode of this case codes (0 for a decode).
    pub symbols: u64,
    /// `None` until the reference has answered (`cold_construct`
    /// checks after the measured phase).
    pub expected: Option<Expected>,
}

impl Case {
    /// An encoding case whose answer is checked later.
    pub fn unchecked(spec: &Spec) -> Case {
        Case {
            request: spec.encode_request(),
            route_key: spec.route_key(),
            symbols: spec.payload.len() as u64,
            expected: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Match,
    Mismatch,
    /// Checked after the run.
    Pending,
    Busy,
    Timeout,
    UnknownBase,
    Error,
    Transport,
}

/// Judges `outcome` against `expected` (`None`: judge later).
pub fn judge(expected: Option<&Expected>, outcome: &std::io::Result<Response>) -> Verdict {
    let resp = match outcome {
        Ok(r) => r,
        Err(_) => return Verdict::Transport,
    };
    match (expected, resp) {
        (_, Response::Busy) => Verdict::Busy,
        (_, Response::Timeout) => Verdict::Timeout,
        (
            _,
            Response::Error {
                code: ErrorCode::UnknownBase,
                ..
            },
        ) => Verdict::UnknownBase,
        (_, Response::Error { .. }) => Verdict::Error,
        (None, _) => Verdict::Pending,
        (
            Some(Expected::Bits { bit_len, data }),
            Response::Encoded {
                bit_len: b,
                data: d,
            },
        )
        | (
            Some(Expected::Bits { bit_len, data }),
            Response::DeltaEncoded {
                bit_len: b,
                data: d,
                ..
            },
        ) => {
            if b == bit_len && d == data {
                Verdict::Match
            } else {
                Verdict::Mismatch
            }
        }
        (Some(Expected::Payload(p)), Response::Decoded { payload }) if p == payload => {
            Verdict::Match
        }
        _ => Verdict::Mismatch,
    }
}

/// Encoded bits of a successful encode response.
pub fn encoded_bits(resp: &Response) -> Option<u64> {
    match resp {
        Response::Encoded { bit_len, .. } | Response::DeltaEncoded { bit_len, .. } => {
            Some(*bit_len)
        }
        _ => None,
    }
}

/// Requests attempted and how each ended.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub matched: u64,
    pub mismatched: u64,
    pub busy: u64,
    pub timeout: u64,
    pub unknown_base: u64,
    pub error: u64,
    pub transport: u64,
}

impl Tally {
    pub fn add(&mut self, v: Verdict) {
        self.attempted += 1;
        match v {
            Verdict::Match => self.matched += 1,
            Verdict::Mismatch => self.mismatched += 1,
            Verdict::Pending => {}
            Verdict::Busy => self.busy += 1,
            Verdict::Timeout => self.timeout += 1,
            Verdict::UnknownBase => self.unknown_base += 1,
            Verdict::Error => self.error += 1,
            Verdict::Transport => self.transport += 1,
        }
    }

    /// Settles a pending verdict after the run.
    pub fn settle(&mut self, v: Verdict) {
        self.attempted -= 1;
        self.add(v);
    }

    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.matched += o.matched;
        self.mismatched += o.mismatched;
        self.busy += o.busy;
        self.timeout += o.timeout;
        self.unknown_base += o.unknown_base;
        self.error += o.error;
        self.transport += o.transport;
    }

    /// Requests answered with a codec result (checked or not yet).
    pub fn answered(&self) -> u64 {
        self.attempted
            - self.mismatched
            - self.busy
            - self.timeout
            - self.unknown_base
            - self.error
            - self.transport
    }

    /// Requests that did not end in a checked, correct answer.
    pub fn failed(&self) -> u64 {
        self.attempted - self.matched
    }
}

/// A direct in-process `Service` with the replicas' configuration: the
/// reference every fleet response is compared against.
pub struct Reference {
    svc: Service,
}

impl Reference {
    pub fn start(g: &Generated, tmp: &TmpRoot) -> Reference {
        let dir = g
            .workload
            .store_backed()
            .then(|| tmp.fresh_dir("reference"));
        Reference {
            svc: Service::start(replica_config(dir)),
        }
    }

    fn submit(&self, request: Request) -> Result<Response, String> {
        match self.svc.submit(request) {
            r @ (Response::Encoded { .. }
            | Response::DeltaEncoded { .. }
            | Response::Decoded { .. }) => Ok(r),
            other => Err(format!("reference service answered {other:?}")),
        }
    }

    /// The concrete case for `spec` and its expected answer, after
    /// checking that the reference decodes its own encoding back to the
    /// payload.
    pub fn case(&self, spec: &Spec) -> Result<Case, String> {
        let (bit_len, data) = match self.submit(spec.encode_request())? {
            Response::Encoded { bit_len, data } | Response::DeltaEncoded { bit_len, data, .. } => {
                (bit_len, data)
            }
            other => return Err(format!("encode answered {other:?}")),
        };
        let decode = Request::Decode {
            family: spec.family,
            histogram: spec.histogram.clone(),
            bit_len,
            data: data.clone(),
        };
        match self.submit(decode.clone())? {
            Response::Decoded { payload } if payload == spec.payload => {}
            _ => return Err("reference decode(encode(x)) != x".into()),
        }
        Ok(match spec.op {
            Op::Decode => Case {
                request: decode,
                route_key: spec.route_key(),
                symbols: 0,
                expected: Some(Expected::Payload(spec.payload.clone())),
            },
            Op::Encode | Op::EncodeDelta => Case {
                expected: Some(Expected::Bits { bit_len, data }),
                ..Case::unchecked(spec)
            },
        })
    }

    /// Builds the working set first (so every delta base is resident),
    /// then every case in `idxs`, on `CLIENTS` threads.
    pub fn cases(&self, g: &Generated, idxs: &[u32]) -> Result<Vec<(u32, Case)>, String> {
        self.each(g, &g.populate)?;
        self.each(g, idxs)
    }

    fn each(&self, g: &Generated, idxs: &[u32]) -> Result<Vec<(u32, Case)>, String> {
        let out = Mutex::new(Vec::with_capacity(idxs.len()));
        let next = std::sync::atomic::AtomicUsize::new(0);
        let result: Result<(), String> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    s.spawn(|| loop {
                        let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&i) = idxs.get(k) else { return Ok(()) };
                        let case = self.case(&g.specs[i as usize])?;
                        out.lock()
                            .expect("reference results poisoned")
                            .push((i, case));
                    })
                })
                .collect();
            workers
                .into_iter()
                .try_for_each(|w| w.join().expect("reference worker panicked"))
        });
        result?;
        let mut out = out.into_inner().expect("reference results poisoned");
        out.sort_by_key(|(i, _)| *i);
        Ok(out)
    }

    pub fn shutdown(self) {
        self.svc.shutdown();
    }
}
