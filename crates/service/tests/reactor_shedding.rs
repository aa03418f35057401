//! Load shedding over the reactor: a service whose workers are paused
//! must answer exactly `queue_capacity` connections' requests with
//! silence (queued) and every other one with a `Busy` frame.
//!
//! Kept out of `soak_reactor`, whose leak check counts this process's
//! file descriptors and threads and would count these sockets too.

use partree_service::frame::{encode_request, read_frame, Histogram, Opcode, Request};
use partree_service::net::Server;
use partree_service::server::{Service, ServiceConfig};
use partree_service::FamilyId;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

#[test]
fn paused_service_sheds_busy_deterministically_over_the_reactor() {
    const QUEUE: usize = 32;
    const CONNS: usize = 200;

    // workers: 0 pauses the drain side entirely, so exactly QUEUE
    // submissions are accepted and every later one sheds as Busy —
    // no timing, no racing workers.
    let server = Server::bind(
        Service::start(ServiceConfig {
            workers: 0,
            queue_capacity: QUEUE,
            request_timeout: Duration::from_secs(30), // keep Timeout out of the count
            ..ServiceConfig::default()
        }),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.addr();

    let payload: Vec<u8> = (0..64).map(|i| (i % 3) as u8).collect();
    let hist = Histogram::of_payload(3, &payload).unwrap();
    let wire = encode_request(
        5,
        &Request::Encode {
            family: FamilyId::Huffman,
            histogram: hist,
            payload,
        },
    );

    // Fire one Encode per connection, then collect responses: a Busy
    // frame for the shed ones, a read timeout for the queued ones.
    let mut conns = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&wire).unwrap();
        conns.push(s);
    }
    let mut busy = 0usize;
    let mut queued = 0usize;
    for s in &mut conns {
        s.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        match read_frame(s) {
            Ok(Some(frame)) => {
                assert_eq!(frame.opcode, Opcode::Busy, "unexpected response");
                assert_eq!(frame.id, 5, "response id must echo the request id");
                busy += 1;
            }
            Ok(None) => panic!("server closed an accepted connection"),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                queued += 1;
            }
            Err(e) => panic!("transport error collecting shed counts: {e}"),
        }
    }
    assert_eq!(
        (busy, queued),
        (CONNS - QUEUE, QUEUE),
        "paused service must shed everything beyond its queue, exactly"
    );

    drop(conns);
    server.shutdown().unwrap();
}
