//! End-to-end integration tests of the network front end: concurrent
//! pipelined clients over a real loopback socket, validated against
//! per-client `BTreeMap` oracles, plus a protocol-fuzz pass proving that
//! malformed input produces typed errors without killing the connection or
//! the server.

use hyperion::core::db::MAX_KEY_LEN;
use hyperion::server::protocol::{self, opcode, ErrorCode, Request, Response};
use hyperion::server::{BatchEntry, Client, ClientError};
use hyperion::{FibonacciPartitioner, HyperionConfig, HyperionDb, Server, ServerConfig};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

fn start_server() -> (hyperion::ServerHandle, Arc<HyperionDb>) {
    let db = Arc::new(
        HyperionDb::builder()
            .shards(8)
            .config(HyperionConfig::for_strings())
            .partitioner(FibonacciPartitioner)
            .build(),
    );
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    (server, db)
}

/// Deterministic xorshift, one stream per client.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Eight concurrent clients, each pipelining a mixed GET/PUT/DEL/MGET
/// workload over its own key stripe and checking every response against a
/// `BTreeMap` oracle updated at send time (valid because same-key requests
/// execute in arrival order server-side).
#[test]
fn concurrent_pipelined_clients_match_their_oracles() {
    const CLIENTS: usize = 8;
    const OPS: usize = 3_000;
    const WINDOW: usize = 48;
    let (mut server, db) = start_server();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut rng = Rng(0xdead_beef + c as u64);
                let mut oracle: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
                // id -> expected response, window-bounded.
                let mut pending: HashMap<u32, Response> = HashMap::new();
                let drain_one = |client: &mut Client, pending: &mut HashMap<u32, Response>| {
                    let (id, resp) = client.recv().expect("recv");
                    let want = pending.remove(&id).expect("known id");
                    assert_eq!(resp, want, "client {c}: response diverged from oracle");
                };
                let key_of = |r: u64| format!("c{c:02}/{:05}", r % 600).into_bytes();
                for i in 0..OPS {
                    while pending.len() >= WINDOW {
                        client.flush().expect("flush");
                        drain_one(&mut client, &mut pending);
                    }
                    let (req, want) = match rng.next() % 10 {
                        // 40% puts
                        0..=3 => {
                            let key = key_of(rng.next());
                            let value = (c as u64) << 32 | i as u64;
                            oracle.insert(key.clone(), value);
                            (Request::Put { key, value }, Response::Ok)
                        }
                        // 20% deletes
                        4..=5 => {
                            let key = key_of(rng.next());
                            let present = oracle.remove(&key).is_some();
                            (Request::Del { key }, Response::Deleted(present))
                        }
                        // 30% gets
                        6..=8 => {
                            let key = key_of(rng.next());
                            let want = oracle.get(&key).copied();
                            (Request::Get { key }, Response::Value(want))
                        }
                        // 10% mgets.  MGET is routed by its *first* key and
                        // makes no ordering promise against requests in
                        // flight on other workers — in either direction —
                        // so it runs as a synchronous barrier: drain the
                        // window, send it alone, and drain it too before
                        // pipelining resumes.
                        _ => {
                            client.flush().expect("flush");
                            while !pending.is_empty() {
                                drain_one(&mut client, &mut pending);
                            }
                            let keys: Vec<Vec<u8>> = (0..4).map(|_| key_of(rng.next())).collect();
                            let want = keys
                                .iter()
                                .map(|k| oracle.get(k).copied())
                                .collect::<Vec<_>>();
                            (Request::MGet { keys }, Response::Values(want))
                        }
                    };
                    let barrier = matches!(req, Request::MGet { .. });
                    let id = client.send(&req);
                    pending.insert(id, want);
                    if barrier {
                        client.flush().expect("flush");
                        while !pending.is_empty() {
                            drain_one(&mut client, &mut pending);
                        }
                    }
                }
                client.flush().expect("flush");
                while !pending.is_empty() {
                    drain_one(&mut client, &mut pending);
                }
                // Final state check: a full sweep of this client's stripe.
                let mut final_client = client;
                for (key, value) in &oracle {
                    assert_eq!(
                        final_client.get(key).expect("get"),
                        Some(*value),
                        "client {c}: final state diverged"
                    );
                }
                oracle
            });
        }
    });

    // The pipelined load must have produced multi-request coalescing groups.
    let stats = server.stats();
    assert!(stats.errors == 0, "unexpected server errors: {stats:?}");
    assert!(
        stats.avg_read_group() > 1.0 || stats.avg_write_group() > 1.0,
        "eight pipelined clients should coalesce somewhere: {stats:?}"
    );
    // The embedded handle sees the same data the sockets wrote.
    assert!(!db.is_empty());
    server.shutdown();
}

/// Malformed frames, oversized keys, oversized frames: every one must come
/// back as a typed error on a connection that keeps working.
#[test]
fn protocol_fuzz_yields_typed_errors_not_dead_connections() {
    let (mut server, _db) = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut rng = Rng(0x5eed);

    // Interleave garbage with healthy traffic: after every piece of garbage
    // the same connection must still answer correctly.
    for round in 0..50u64 {
        let key = format!("fuzz{round:03}").into_bytes();
        client.put(&key, round).expect("healthy put");

        match rng.next() % 4 {
            // Truncated payload under a valid length prefix.
            0 => {
                let mut raw = Vec::new();
                protocol::encode_request(
                    1000 + round as u32,
                    &Request::Put {
                        key: b"victim".to_vec(),
                        value: 1,
                    },
                    &mut raw,
                );
                let cut = 1 + (rng.next() as usize) % 8;
                for _ in 0..cut.min(raw.len() - 9) {
                    raw.pop();
                }
                let len = (raw.len() - 4) as u32;
                raw[..4].copy_from_slice(&len.to_le_bytes());
                client.send_raw(&raw).expect("send");
                let (id, resp) = client.recv().expect("recv");
                assert_eq!(id, 1000 + round as u32);
                assert!(
                    matches!(
                        resp,
                        Response::Error {
                            code: ErrorCode::BadFrame,
                            ..
                        }
                    ),
                    "round {round}: {resp:?}"
                );
            }
            // Unknown opcode.
            1 => {
                let mut raw = Vec::new();
                raw.extend_from_slice(&5u32.to_le_bytes());
                raw.push(0x80 | (rng.next() as u8 & 0x7f).max(8));
                raw.extend_from_slice(&(2000 + round as u32).to_le_bytes());
                client.send_raw(&raw).expect("send");
                let (id, resp) = client.recv().expect("recv");
                assert_eq!(id, 2000 + round as u32);
                assert!(
                    matches!(
                        resp,
                        Response::Error {
                            code: ErrorCode::UnknownOp,
                            ..
                        }
                    ),
                    "round {round}: {resp:?}"
                );
            }
            // Key over the store maximum, via the typed client API.
            2 => {
                let long = vec![b'k'; MAX_KEY_LEN + 1 + (rng.next() as usize % 64)];
                match client.put(&long, 1) {
                    Err(ClientError::Server {
                        code: ErrorCode::KeyTooLong,
                        ..
                    }) => {}
                    other => panic!("round {round}: want KeyTooLong, got {other:?}"),
                }
            }
            // Structurally valid but bad argument: zero scan limit.
            _ => match client.scan(b"", None, 0, false) {
                Err(ClientError::Server {
                    code: ErrorCode::BadArgument,
                    ..
                }) => {}
                other => panic!("round {round}: want BadArgument, got {other:?}"),
            },
        }

        // The connection survived the garbage.
        assert_eq!(client.get(&key).expect("healthy get"), Some(round));
    }
    server.shutdown();
}

/// A client vanishing mid-frame (and mid-pipeline) must not take the server
/// or other connections down.
#[test]
fn mid_frame_disconnects_do_not_poison_the_server() {
    let (mut server, _db) = start_server();
    let addr = server.local_addr();

    for i in 0..20u64 {
        let mut stream = TcpStream::connect(addr).expect("connect raw");
        // A healthy pipelined burst...
        let mut burst = Vec::new();
        for j in 0..10u64 {
            protocol::encode_request(
                j as u32 + 1,
                &Request::Put {
                    key: format!("dis{i}-{j}").into_bytes(),
                    value: j,
                },
                &mut burst,
            );
        }
        stream.write_all(&burst).expect("write burst");
        // ...then half a frame header, then gone.
        stream
            .write_all(&[255, 0, 0, 0, opcode::GET, 1])
            .expect("write partial");
        drop(stream);
    }

    // The server is still fully functional for a well-behaved client.
    let mut client = Client::connect(addr).expect("connect");
    client.put(b"survivor", 99).expect("put");
    assert_eq!(client.get(b"survivor").expect("get"), Some(99));
    let stats = client.stats().expect("stats");
    assert!(stats.requests > 0);
    server.shutdown();
}

/// Batches and scans work through the facade re-exports, and scans observe
/// batch writes on the same connection once the batch is acknowledged.
#[test]
fn batch_then_scan_through_the_facade() {
    let (mut server, _db) = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let ops: Vec<BatchEntry> = (0..100)
        .map(|i| BatchEntry::Put {
            key: format!("scan/{i:03}").into_bytes(),
            value: i,
        })
        .collect();
    let ack = client.batch(&ops).expect("batch");
    assert_eq!(ack.inserted, 100);
    let forward = client
        .scan(b"scan/", Some(b"scan0"), 1000, false)
        .expect("scan");
    assert_eq!(forward.len(), 100);
    assert!(
        forward.windows(2).all(|w| w[0].0 < w[1].0),
        "ascending order"
    );
    let backward = client
        .scan(b"scan/", Some(b"scan0"), 1000, true)
        .expect("scan rev");
    assert_eq!(
        backward,
        forward.iter().rev().cloned().collect::<Vec<_>>(),
        "reverse scan mirrors forward"
    );
    // Limit honoured.
    let top3 = client.scan(b"scan/", None, 3, true).expect("scan top");
    assert_eq!(
        top3.iter().map(|(k, _)| k.as_slice()).collect::<Vec<_>>(),
        vec![&b"scan/099"[..], b"scan/098", b"scan/097"]
    );
    server.shutdown();
}
