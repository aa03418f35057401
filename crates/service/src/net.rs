//! Loopback TCP front end: one [`Server`] owns a listener and serves
//! frames against a [`Service`] from a single epoll thread that owns
//! every socket ([`crate::reactor`]).
//!
//! The reactor decodes frames incrementally over partial reads and
//! feeds requests to the service's bounded queue via
//! [`Service::submit_async`]; batching, caching, and shedding all live
//! behind the queue, so one thread holds thousands of connections and
//! each may pipeline requests.
//!
//! Shutdown is cooperative and complete: [`Server::shutdown`] wakes the
//! reactor through its eventfd waker and joins it before shutting the
//! service down — no leaked threads or sockets, asserted by
//! `fleet-sim service` and the `soak_reactor` suite.

use crate::server::Service;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fault-injection knobs for failover testing: a server can be told to
/// sever connections or delay replies, which is how the gateway's
/// retry/hedging paths are exercised deterministically without a real
/// network. Both knobs are live atomics — tests flip them mid-run —
/// and apply only to codec requests (`Encode`/`Decode`): health probes
/// stay truthful so a *faulty* replica is distinguishable from a
/// *dead* one.
///
/// Defaults come from the environment at [`Server::bind`] time
/// (`PARTREE_FAULT_DROP_PCT`, `PARTREE_FAULT_DELAY_MS`), so
/// multi-process setups can inject faults without code changes; both
/// default to off.
#[derive(Debug, Default)]
pub struct FaultInjection {
    /// Percent (0–100) of codec requests whose connection is severed
    /// without a reply — the client sees a transport error mid-request.
    drop_pct: AtomicU32,
    /// Delay before answering each codec request, milliseconds.
    delay_ms: AtomicU64,
}

impl FaultInjection {
    fn from_env() -> FaultInjection {
        let parse = |k: &str| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        FaultInjection {
            drop_pct: AtomicU32::new(parse("PARTREE_FAULT_DROP_PCT").min(100) as u32),
            delay_ms: AtomicU64::new(parse("PARTREE_FAULT_DELAY_MS")),
        }
    }

    /// Sets the percentage (0–100) of codec requests to sever.
    pub fn set_drop_pct(&self, pct: u32) {
        self.drop_pct.store(pct.min(100), Ordering::Relaxed);
    }

    /// Sets the per-request reply delay in milliseconds.
    pub fn set_delay_ms(&self, ms: u64) {
        self.delay_ms.store(ms, Ordering::Relaxed);
    }

    pub(crate) fn should_drop(&self, rng: &mut u64) -> bool {
        let pct = self.drop_pct.load(Ordering::Relaxed);
        if pct == 0 {
            return false;
        }
        // xorshift64*: deterministic per connection, seeded by the
        // connection index, so tests replay exactly.
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        (*rng % 100) < u64::from(pct)
    }

    pub(crate) fn delay(&self) -> Duration {
        Duration::from_millis(self.delay_ms.load(Ordering::Relaxed))
    }
}

/// The connection engine a [`Server`] runs. The epoll reactor is the
/// only one; the type survives so callers that record which engine
/// served a run keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// One epoll reactor thread owning every socket.
    #[default]
    Reactor,
}

impl Transport {
    /// The engine every [`Server`] and gateway runs. Reads nothing: there
    /// is no choice left to make.
    pub fn from_env() -> Transport {
        Transport::Reactor
    }
}

/// A listening codec server bound to a loopback port.
pub struct Server {
    service: Service,
    addr: SocketAddr,
    faults: Arc<FaultInjection>,
    reactor: crate::reactor::ReactorHandle,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds `addr` (use `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving connections against `service` on the reactor.
    pub fn bind(service: Service, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let faults = Arc::new(FaultInjection::from_env());
        let reactor = crate::reactor::spawn(service.clone(), listener, Arc::clone(&faults))?;
        Ok(Server {
            service,
            addr,
            faults,
            reactor,
        })
    }

    /// The live fault-injection knobs (tests flip them mid-run).
    pub fn faults(&self) -> &FaultInjection {
        &self.faults
    }

    /// The bound address (the ephemeral port clients connect to).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind this listener.
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Stops accepting, drops every connection, joins the reactor
    /// thread, and shuts the service down. Returns the number of
    /// queued jobs the service dropped.
    pub fn shutdown(self) -> io::Result<usize> {
        self.reactor.shutdown()?;
        Ok(self.service.shutdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::frame::{read_frame, Histogram, Request, Response};
    use crate::server::ServiceConfig;
    use std::net::TcpStream;

    fn bind() -> Server {
        Server::bind(Service::start(ServiceConfig::default()), "127.0.0.1:0").unwrap()
    }

    #[test]
    fn tcp_roundtrip_and_clean_shutdown() {
        let server = bind();
        let mut client = Client::connect(server.addr()).unwrap();
        let hist = Histogram::new(vec![7, 3, 1, 1]).unwrap();
        let payload = vec![0u8, 1, 2, 3, 0, 0, 1];
        let (bit_len, data) = client.encode(&hist, &payload).unwrap();
        let back = client.decode(&hist, bit_len, &data).unwrap();
        assert_eq!(back, payload);
        let stats = client.stats().unwrap();
        assert_eq!(stats.encoded, 1);
        assert_eq!(stats.decoded, 1);
        drop(client);
        assert_eq!(server.shutdown().unwrap(), 0);
    }

    #[test]
    fn shutdown_completes_under_continuous_traffic() {
        // A peer that never stops sending (here: a tight ping loop,
        // like a router's health prober) must not be able to hold
        // `Server::shutdown` hostage.
        let server = bind();
        let addr = server.addr();
        let pinger = std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            // Ping until the server severs the connection.
            while client.ping().is_ok() {}
        });
        // Let the ping loop get going.
        std::thread::sleep(Duration::from_millis(100));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(server.shutdown());
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("shutdown hung on a continuously-talking connection")
            .unwrap();
        pinger.join().unwrap();
    }

    #[test]
    fn shutdown_unblocks_a_partial_frame_read() {
        use crate::frame::{encode_frame, Opcode, HEADER_LEN};
        use std::io::Write;

        let server = bind();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Send a header promising a 16-byte body but only 4 body bytes:
        // the reactor holds the decoder state and must still shut down
        // promptly.
        let wire = encode_frame(1, Opcode::Encode, &[0u8; 16]);
        stream.write_all(&wire[..HEADER_LEN + 4]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(150));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(server.shutdown());
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("shutdown hung on a mid-frame connection")
            .unwrap();
    }

    #[test]
    fn ping_drain_and_fault_injection_over_tcp() {
        let server = bind();
        let mut client = Client::connect(server.addr()).unwrap();
        assert!(!client.ping().unwrap(), "fresh server is not draining");

        // Delay fault: the reply still arrives, just late — and Ping is
        // exempt, so health stays honest while data lags.
        server.faults().set_delay_ms(30);
        let hist = Histogram::new(vec![3, 1]).unwrap();
        let t0 = std::time::Instant::now();
        let (bits, data) = client.encode(&hist, &[0, 1, 0]).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(25), "delay applied");
        server.faults().set_delay_ms(0);

        // Drop fault: the connection is severed without a reply.
        server.faults().set_drop_pct(100);
        assert!(client.encode(&hist, &[0, 1]).is_err());
        server.faults().set_drop_pct(0);

        // A fresh connection works again; drain flips the pong bit.
        let mut c2 = Client::connect(server.addr()).unwrap();
        assert_eq!(c2.decode(&hist, bits, &data).unwrap(), vec![0, 1, 0]);
        c2.drain().unwrap();
        assert!(c2.ping().unwrap(), "drained server advertises it");
        drop((client, c2));
        server.shutdown().unwrap();
    }

    #[test]
    fn malformed_frames_get_error_responses() {
        use crate::frame::{encode_frame, ErrorCode, Opcode};
        use std::io::Write;

        let server = bind();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // An Encode frame with an empty body: truncated at "alphabet".
        let wire = encode_frame(5, Opcode::Encode, &[]);
        stream.write_all(&wire).unwrap();
        stream.flush().unwrap();
        let raw = read_frame(&mut &stream).unwrap().unwrap();
        assert_eq!(raw.id, 5);
        match crate::frame::decode_response(raw.opcode, &raw.body).unwrap() {
            Response::Error {
                code: ErrorCode::Malformed,
                ..
            } => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
        drop(stream);
        server.shutdown().unwrap();
    }

    #[test]
    fn reactor_reassembles_a_dripped_frame_and_interleaves_connections() {
        use crate::frame::{encode_request, Opcode};
        use std::io::Write;

        let server = bind();
        let hist = Histogram::new(vec![5, 2, 1]).unwrap();

        // Connection A drips an Encode request a byte at a time...
        let mut slow = TcpStream::connect(server.addr()).unwrap();
        let wire = encode_request(
            9,
            &Request::Encode {
                family: partree_codecs::FamilyId::Huffman,
                histogram: hist.clone(),
                payload: vec![0, 1, 2, 0, 0],
            },
        );
        let (head, tail) = wire.split_at(wire.len() / 2);
        for &b in head {
            slow.write_all(&[b]).unwrap();
            slow.flush().unwrap();
        }
        // ...while connection B does a full round trip in the middle:
        // one stalled peer must not stall the reactor.
        let mut quick = Client::connect(server.addr()).unwrap();
        let (bits, data) = quick.encode(&hist, &[0, 1, 2, 0, 0]).unwrap();
        for &b in tail {
            slow.write_all(&[b]).unwrap();
            slow.flush().unwrap();
        }
        let raw = read_frame(&mut &slow).unwrap().unwrap();
        assert_eq!((raw.id, raw.opcode), (9, Opcode::EncodeOk));
        match crate::frame::decode_response(raw.opcode, &raw.body).unwrap() {
            Response::Encoded {
                bit_len,
                data: slow_data,
            } => {
                assert_eq!(
                    (bit_len, slow_data),
                    (bits, data),
                    "dripped and one-shot requests must encode bit-identically"
                );
            }
            other => panic!("expected Encoded, got {other:?}"),
        }
        drop((slow, quick));
        server.shutdown().unwrap();
    }
}
