//! The gateway's RPC engine: every replica connection multiplexed on
//! one epoll thread.
//!
//! [`RpcClient::call`] hands an attempt, probe, or warm-up transfer to
//! a single reactor thread that owns all sockets — non-blocking
//! connects (`SO_ERROR` read once the socket polls writable),
//! incremental frame decoding over partial reads, per-address idle
//! pools, and a deadline sweep that turns stuck connects or replies
//! into `TimedOut` errors.
//!
//! Semantics match the blocking [`partree_service::client::Client`]:
//!
//! * one outstanding request per connection — a connection is returned
//!   to its idle pool only after a complete, id-matched response, and
//!   discarded on **any** error (a mid-frame stream can never be
//!   reused);
//! * response ids must echo request ids, and undecodable responses
//!   surface as `InvalidData`, the same classification the blocking
//!   client produces;
//! * every submitted call gets **exactly one** callback invocation,
//!   enforced by a drop guard: calls still queued or in flight when
//!   the client shuts down complete with an error instead of
//!   vanishing (the gateway's `outstanding` accounting depends on
//!   this).
//!
//! Submission reuses the model-checked
//! [`partree_service::waker::CompletionQueue`] handshake in the
//! opposite direction: routing threads are the producers, the reactor
//! is the sleeping consumer, and at most one `eventfd` write is paid
//! per reactor sleep.

use partree_service::frame::{
    decode_response, encode_request, FrameDecoder, RawFrame, Request, Response,
};
use partree_service::waker::CompletionQueue;
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const WAKER: mio::Token = mio::Token(0);
/// Connection slot `i` registers under token `FIRST_CONN + i`.
const FIRST_CONN: usize = 1;
const EVENT_CAPACITY: usize = 256;
/// Poll timeout ceiling; bounds deadline-sweep latency.
const TICK: Duration = Duration::from_millis(50);
const READ_CHUNK: usize = 16 * 1024;

fn bad_data(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Single-shot completion callback with a drop guarantee: an
/// unanswered call completes with a shutdown error instead of leaking.
struct CallSink {
    f: Option<Box<dyn FnOnce(io::Result<Response>) + Send>>,
}

impl CallSink {
    fn new(f: impl FnOnce(io::Result<Response>) + Send + 'static) -> CallSink {
        CallSink {
            f: Some(Box::new(f)),
        }
    }

    fn complete(mut self, outcome: io::Result<Response>) {
        if let Some(f) = self.f.take() {
            f(outcome);
        }
    }
}

impl Drop for CallSink {
    fn drop(&mut self) {
        if let Some(f) = self.f.take() {
            f(Err(io::Error::other(
                "rpc client dropped the call during shutdown",
            )));
        }
    }
}

/// One queued attempt.
struct Call {
    addr: SocketAddr,
    request: Arc<Request>,
    deadline: Instant,
    connect_timeout: Duration,
    done: CallSink,
}

/// Messages from gateway threads to the reactor.
enum Msg {
    Call(Call),
    /// Close every idle connection to `addr` (the prober's reaction to
    /// a failed ping).
    Purge(SocketAddr),
}

struct Shared {
    submits: CompletionQueue<Msg>,
    waker: mio::Waker,
    stop: AtomicBool,
    /// Addresses whose peer closed an idle connection since the last
    /// [`RpcClient::take_hang_up`].
    hung_up: Mutex<HashSet<SocketAddr>>,
}

/// Handle to the reactor thread; the gateway owns exactly one.
pub(crate) struct RpcClient {
    shared: Arc<Shared>,
    thread: Mutex<Option<std::thread::JoinHandle<io::Result<()>>>>,
}

impl std::fmt::Debug for RpcClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcClient").finish()
    }
}

impl RpcClient {
    /// Starts the reactor thread. `pool_cap` bounds idle connections
    /// kept per replica address.
    pub(crate) fn start(pool_cap: usize) -> io::Result<RpcClient> {
        let poll = mio::Poll::new()?;
        let waker = mio::Waker::new(&poll, WAKER)?;
        let shared = Arc::new(Shared {
            submits: CompletionQueue::new(),
            waker,
            stop: AtomicBool::new(false),
            hung_up: Mutex::new(HashSet::new()),
        });
        let loop_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("gateway-rpc".into())
            .spawn(move || {
                Loop {
                    poll,
                    shared: loop_shared,
                    slots: Vec::new(),
                    free: Vec::new(),
                    idle: HashMap::new(),
                    pool_cap,
                    next_id: 0,
                }
                .run()
            })
            .map_err(|e| io::Error::other(format!("spawning the rpc reactor thread: {e}")))?;
        Ok(RpcClient {
            shared,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Submits one attempt; `done` fires exactly once with the outcome
    /// (on the reactor thread — it must not block).
    pub(crate) fn call(
        &self,
        addr: SocketAddr,
        request: Arc<Request>,
        deadline: Instant,
        connect_timeout: Duration,
        done: impl FnOnce(io::Result<Response>) + Send + 'static,
    ) {
        self.send(Msg::Call(Call {
            addr,
            request,
            deadline,
            connect_timeout,
            done: CallSink::new(done),
        }));
    }

    /// Drops every idle connection to `addr`.
    pub(crate) fn purge(&self, addr: SocketAddr) {
        self.send(Msg::Purge(addr));
    }

    /// True once per hang-up: the peer at `addr` closed an idle
    /// connection since the last call. A replica only closes idle
    /// connections when it goes away, so this reports a death (or a
    /// restart) even when no call to it ever failed.
    pub(crate) fn take_hang_up(&self, addr: SocketAddr) -> bool {
        self.shared
            .hung_up
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&addr)
    }

    fn send(&self, msg: Msg) {
        if self.shared.submits.push(msg) {
            // The reactor committed to epoll_wait; this push owes the
            // eventfd write that lifts it out.
            let _ = self.shared.waker.wake();
        }
    }

    /// Stops the reactor and joins it. Queued and in-flight calls
    /// complete with a shutdown error via their drop guards (their
    /// connections are dropped when the loop's slab unwinds).
    pub(crate) fn shutdown_in_place(&self) {
        self.shared.stop.store(true, Ordering::Release);
        let _ = self.shared.waker.wake();
        // lint: allow(no-unwrap): a poisoned handle mutex means a concurrent shutdown panicked mid-join; nothing sane is left to do
        if let Some(t) = self.thread.lock().expect("rpc handle poisoned").take() {
            let _ = t.join();
        }
    }
}

impl Drop for RpcClient {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// The request the connection currently carries.
struct Pending {
    id: u64,
    deadline: Instant,
    done: CallSink,
}

enum State {
    /// Non-blocking connect in flight; the call is parked until the
    /// socket polls writable and `SO_ERROR` is read.
    Connecting { call: Call, give_up: Instant },
    /// Request written (or being written); awaiting the response frame.
    Active { pending: Pending },
    /// Checked into the per-address idle pool.
    Idle,
}

struct Conn {
    stream: TcpStream,
    addr: SocketAddr,
    decoder: FrameDecoder,
    out: Vec<u8>,
    written: usize,
    interest: mio::Interest,
    state: State,
}

struct Loop {
    poll: mio::Poll,
    shared: Arc<Shared>,
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Idle slot indices per address (LIFO: most recently used first).
    idle: HashMap<SocketAddr, Vec<usize>>,
    pool_cap: usize,
    next_id: u64,
}

impl Loop {
    fn run(mut self) -> io::Result<()> {
        let mut events = mio::Events::with_capacity(EVENT_CAPACITY);
        let mut inbox = Vec::new();
        // Slots freed this iteration; reuse deferred past the current
        // event batch so stale events cannot hit a recycled slot.
        let mut freed = Vec::new();
        while !self.shared.stop.load(Ordering::Acquire) {
            self.shared.submits.drain(&mut inbox);
            for msg in inbox.drain(..) {
                match msg {
                    Msg::Call(call) => self.start_call(call, &mut freed),
                    Msg::Purge(addr) => self.purge(addr, &mut freed),
                }
            }
            self.sweep_deadlines(&mut freed);

            if self.shared.submits.try_sleep() {
                let res = self.poll.poll(&mut events, Some(TICK));
                self.shared.submits.wake_up();
                res?;
            } else {
                self.poll.poll(&mut events, Some(Duration::ZERO))?;
            }
            for ev in events.iter() {
                match ev.token() {
                    WAKER => self.shared.waker.drain(),
                    mio::Token(t) => self.conn_event(t - FIRST_CONN, ev, &mut freed),
                }
            }
            self.free.append(&mut freed);
        }
        Ok(())
    }

    /// Routes a new call onto an idle connection or a fresh
    /// non-blocking connect.
    fn start_call(&mut self, call: Call, freed: &mut Vec<usize>) {
        // Reuse the most recently idle connection to this address.
        while let Some(slot) = self.idle.get_mut(&call.addr).and_then(Vec::pop) {
            let reusable = self
                .slots
                .get(slot)
                .and_then(Option::as_ref)
                .is_some_and(|c| matches!(c.state, State::Idle) && c.addr == call.addr);
            if reusable {
                self.activate(slot, call, freed);
                return;
            }
        }
        let stream = match mio::net::connect_nonblocking(call.addr) {
            Ok(s) => s,
            Err(e) => return call.done.complete(Err(e)),
        };
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        if let Err(e) = self.poll.register(
            &stream,
            mio::Token(FIRST_CONN + slot),
            mio::Interest::WRITABLE,
        ) {
            self.free.push(slot);
            return call.done.complete(Err(e));
        }
        let _ = stream.set_nodelay(true);
        let give_up = (Instant::now() + call.connect_timeout).min(call.deadline);
        let addr = call.addr;
        self.slots[slot] = Some(Conn {
            stream,
            addr,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            written: 0,
            interest: mio::Interest::WRITABLE,
            state: State::Connecting { call, give_up },
        });
    }

    /// Writes the request frame on a connected socket and arms the
    /// response wait.
    fn activate(&mut self, slot: usize, call: Call, freed: &mut Vec<usize>) {
        let id = self.next_id;
        self.next_id += 1;
        let Some(conn) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return call
                .done
                .complete(Err(io::Error::other("rpc slot vanished")));
        };
        conn.out
            .extend_from_slice(&encode_request(id, &call.request));
        conn.state = State::Active {
            pending: Pending {
                id,
                deadline: call.deadline,
                done: call.done,
            },
        };
        if flush(conn).is_err() {
            self.fail(slot, None, freed);
            return;
        }
        if self.reconcile_interest(slot).is_err() {
            self.fail(slot, None, freed);
        }
    }

    fn conn_event(&mut self, slot: usize, ev: mio::Event, freed: &mut Vec<usize>) {
        let Some(conn) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return; // closed earlier in this same event batch
        };
        match &conn.state {
            State::Connecting { .. } => {
                if !(ev.is_writable() || ev.is_error() || ev.is_read_closed()) {
                    return;
                }
                let connected = mio::net::take_error(&conn.stream);
                let State::Connecting { call, .. } =
                    std::mem::replace(&mut conn.state, State::Idle)
                else {
                    unreachable!("matched Connecting above");
                };
                match connected {
                    Ok(()) => self.activate(slot, call, freed),
                    Err(e) => {
                        call.done.complete(Err(e));
                        self.close(slot, freed);
                    }
                }
            }
            State::Active { .. } => {
                if ev.is_writable() && flush(conn).is_err() {
                    self.fail(slot, None, freed);
                    return;
                }
                if ev.is_readable() {
                    self.read_response(slot, freed);
                } else if self.reconcile_interest(slot).is_err() {
                    self.fail(slot, None, freed);
                }
            }
            State::Idle => {
                // Any readiness on an idle connection means the peer
                // closed it (or broke protocol): drop it and note the
                // hang-up. The idle-list entry goes stale and is
                // skipped on pop.
                let addr = conn.addr;
                self.shared
                    .hung_up
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(addr);
                self.close(slot, freed);
            }
        }
    }

    /// Drains readable bytes into the decoder; a completed, id-matched
    /// frame finishes the call and returns the connection to the pool.
    fn read_response(&mut self, slot: usize, freed: &mut Vec<usize>) {
        let Some(conn) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let mut frame: Option<RawFrame> = None;
        let mut failure: Option<io::Error> = None;
        let mut buf = [0u8; READ_CHUNK];
        'reading: loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    failure = Some(bad_data("server closed the connection mid-request"));
                    break;
                }
                Ok(n) => {
                    let mut off = 0;
                    while off < n {
                        match conn.decoder.advance(&buf[off..n]) {
                            Ok((used, done)) => {
                                off += used;
                                if let Some(f) = done {
                                    if frame.replace(f).is_some() || off < n {
                                        // A second frame (or trailing
                                        // bytes) on a one-outstanding
                                        // connection: protocol breach.
                                        failure =
                                            Some(bad_data("unexpected extra bytes after response"));
                                    }
                                    break 'reading;
                                }
                            }
                            Err(e) => {
                                failure = Some(e);
                                break 'reading;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = failure {
            self.fail(slot, Some(e), freed);
            return;
        }
        let Some(raw) = frame else { return }; // mid-frame: keep waiting
        self.finish_call(slot, raw, freed);
    }

    fn finish_call(&mut self, slot: usize, raw: RawFrame, freed: &mut Vec<usize>) {
        let Some(conn) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let State::Active { pending } = std::mem::replace(&mut conn.state, State::Idle) else {
            // A response with no call outstanding: drop the connection.
            self.close(slot, freed);
            return;
        };
        if raw.id != pending.id {
            pending.done.complete(Err(bad_data(format!(
                "response id {} does not echo request id {}",
                raw.id, pending.id
            ))));
            self.close(slot, freed);
            return;
        }
        pending
            .done
            .complete(decode_response(raw.opcode, &raw.body).map_err(bad_data));
        self.checkin(slot, freed);
    }

    /// Returns a cleanly-answered connection to its address pool, or
    /// closes it when the pool is full.
    fn checkin(&mut self, slot: usize, freed: &mut Vec<usize>) {
        let Some(conn) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let addr = conn.addr;
        if self.reconcile_interest(slot).is_err() {
            self.close(slot, freed);
            return;
        }
        let pool = self.idle.entry(addr).or_default();
        if pool.len() >= self.pool_cap {
            self.close(slot, freed);
        } else {
            pool.push(slot);
        }
    }

    /// Completes the connection's call (if any) with `error` — or a
    /// generic transport error — and closes it.
    fn fail(&mut self, slot: usize, error: Option<io::Error>, freed: &mut Vec<usize>) {
        if let Some(conn) = self.slots.get_mut(slot).and_then(Option::as_mut) {
            let e = error.unwrap_or_else(|| io::Error::other("rpc connection failed"));
            match std::mem::replace(&mut conn.state, State::Idle) {
                State::Connecting { call, .. } => call.done.complete(Err(e)),
                State::Active { pending } => pending.done.complete(Err(e)),
                State::Idle => {}
            }
        }
        self.close(slot, freed);
    }

    /// Times out stuck connects and overdue responses.
    fn sweep_deadlines(&mut self, freed: &mut Vec<usize>) {
        let now = Instant::now();
        let overdue: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(slot, entry)| {
                let conn = entry.as_ref()?;
                let due = match &conn.state {
                    State::Connecting { call, give_up } => (*give_up).min(call.deadline),
                    State::Active { pending } => pending.deadline,
                    State::Idle => return None,
                };
                (due <= now).then_some(slot)
            })
            .collect();
        for slot in overdue {
            self.fail(
                slot,
                Some(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "rpc attempt missed its deadline",
                )),
                freed,
            );
        }
    }

    fn purge(&mut self, addr: SocketAddr, freed: &mut Vec<usize>) {
        for slot in self.idle.remove(&addr).unwrap_or_default() {
            let is_idle = self
                .slots
                .get(slot)
                .and_then(Option::as_ref)
                .is_some_and(|c| matches!(c.state, State::Idle) && c.addr == addr);
            if is_idle {
                self.close(slot, freed);
            }
        }
    }

    /// `WRITABLE` only while bytes are queued; `READABLE` always (an
    /// idle or waiting connection must notice a peer close).
    fn reconcile_interest(&mut self, slot: usize) -> io::Result<()> {
        let Some(conn) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return Ok(());
        };
        let want = if conn.written < conn.out.len() {
            mio::Interest::READABLE.add(mio::Interest::WRITABLE)
        } else {
            mio::Interest::READABLE
        };
        if want != conn.interest {
            self.poll
                .reregister(&conn.stream, mio::Token(FIRST_CONN + slot), want)?;
            conn.interest = want;
        }
        Ok(())
    }

    fn close(&mut self, slot: usize, freed: &mut Vec<usize>) {
        if let Some(conn) = self.slots.get_mut(slot).and_then(Option::take) {
            let _ = self.poll.deregister(&conn.stream);
            freed.push(slot);
        }
    }
}

/// Writes queued bytes until the socket would block or the buffer
/// empties.
fn flush(conn: &mut Conn) -> io::Result<()> {
    while conn.written < conn.out.len() {
        match conn.stream.write(&conn.out[conn.written..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.written == conn.out.len() {
        conn.out.clear();
        conn.written = 0;
    }
    Ok(())
}
