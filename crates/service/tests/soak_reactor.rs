//! Soak battery for the reactor transport: one epoll thread must hold
//! thousands of idle connections while staying responsive on the
//! active ones, shed load deterministically, and — the part `/proc`
//! can prove — leak neither file descriptors nor threads once the
//! sockets go away.
//!
//! The connection count adapts to `RLIMIT_NOFILE`: the test holds both
//! ends of every connection in this one process (client socket +
//! accepted socket), so the 10k-idle target needs ~20k fds plus slack.
//! `mio::net::raise_nofile_limit` asks for headroom first (root can
//! raise the hard limit too); whatever is actually granted scales the
//! idle herd down gracefully rather than failing the test on a
//! constrained runner.
//!
//! The soak is the only test in this binary on purpose: its fd and
//! thread baselines are process-wide, so any test running beside it
//! under the parallel harness would read as a leak.

use partree_exec::procfs::Baseline;
use partree_service::frame::{Histogram, Request, Response};
use partree_service::net::Server;
use partree_service::server::{Service, ServiceConfig};
use partree_service::Client;
use partree_service::FamilyId;
use std::net::TcpStream;
use std::time::Duration;

/// Connect `count` sockets and leave them idle. Paced in bursts well
/// under the listener backlog (128) so no SYN is ever dropped while
/// the single-threaded reactor drains its accept queue.
fn connect_idle_herd(addr: std::net::SocketAddr, count: usize) -> Vec<TcpStream> {
    let mut herd = Vec::with_capacity(count);
    for burst in 0..count.div_ceil(64) {
        for _ in 0..64.min(count - burst * 64) {
            herd.push(TcpStream::connect(addr).unwrap());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    herd
}

#[test]
fn reactor_soaks_thousands_of_idle_connections_without_leaks() {
    // Ask for room for the full 10k-idle herd; scale to what we get.
    let granted = mio::net::raise_nofile_limit(64 * 1024).unwrap_or(1024);
    let budget = granted.saturating_sub(2048); // slack for everything else
    let idle_target = 10_000.min((budget / 2).saturating_sub(1_100)) as usize;
    assert!(
        idle_target >= 1_000,
        "fd limit {granted} too low to soak anything meaningful"
    );

    // Warm the process-wide thread pools before taking baselines, so
    // lazily-spawned pool threads don't read as leaks.
    {
        let svc = Service::start(ServiceConfig::default());
        let hist = Histogram::new(vec![3, 2, 1]).unwrap();
        svc.submit(Request::Encode {
            family: FamilyId::Huffman,
            histogram: hist,
            payload: vec![0, 1, 2],
        });
        svc.shutdown();
    }
    let baseline = Baseline::take();

    {
        let server = Server::bind(Service::start(ServiceConfig::default()), "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let idle = connect_idle_herd(addr, idle_target);
        assert_eq!(idle.len(), idle_target);

        // 1k active connections through the herd: every one dials,
        // pings, and encodes — the reactor must stay responsive with
        // `idle_target` registered-but-silent sockets around it.
        let expected = {
            let direct = Service::start(ServiceConfig::default());
            let payload: Vec<u8> = (0..256).map(|i| (i % 7) as u8).collect();
            let hist = Histogram::of_payload(7, &payload).unwrap();
            let resp = direct.submit(Request::Encode {
                family: FamilyId::Huffman,
                histogram: hist.clone(),
                payload: payload.clone(),
            });
            direct.shutdown();
            match resp {
                Response::Encoded { bit_len, data } => (hist, payload, bit_len, data),
                other => panic!("direct encode failed: {other:?}"),
            }
        };
        let (hist, payload, want_bits, want_data) = expected;
        for i in 0..1_000 {
            let mut client = Client::connect(addr).unwrap();
            assert!(!client.ping().unwrap(), "server draining early at {i}");
            if i % 50 == 0 {
                let (bits, data) = client.encode(&hist, &payload).unwrap();
                assert_eq!(
                    (bits, &data),
                    (want_bits, &want_data),
                    "active conn {i}: bytes differ from direct run under soak"
                );
            }
        }

        drop(idle);
        server.shutdown().unwrap();
    }

    // Everything opened by the soak is gone: sockets (both ends), the
    // reactor's epoll/eventfd, worker threads, the reactor thread.
    // Closing 2×idle_target sockets is kernel work, so /proc gets a
    // moment to settle before a residue counts as a leak.
    baseline.settle(Duration::from_secs(1)).unwrap();
}
