//! Scoring parity: a `link_score` reply must not depend on how its
//! request was grouped or which transport carried it.
//!
//! 1. `engine::score_pairs` gives every pair the same f32 bits when it is
//!    scored alone as when it rides inside a batch. The batch sizes cross
//!    the 4-row blocks of the one-column dot kernel and the 256-row blocks
//!    of the classifier's forward pass. CI re-runs this suite with
//!    `SIMD_FORCE_SCALAR=1`, which covers the scalar kernel table.
//! 2. A fixed script of requests, bad ones included, gets byte-identical
//!    replies through `Service::handle_line`, `Service::respond_batch`,
//!    the blocking `Server` and the `ReactorServer`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use embed::EmbeddingMatrix;
use nn::{Mlp, OutputHead};
use par::ParConfig;
use rwserve::engine::score_pairs;
use rwserve::protocol::parse_request;
use rwserve::{BatchPolicy, EmbeddingStore, Server, Service};

const NODES: usize = 200;
const DIM: usize = 8;

/// A store with irregular embedding values and the paper's link FNN
/// shape (`2d → 64 → 1`), so every kernel path sees non-trivial floats.
fn store() -> Arc<EmbeddingStore> {
    let data: Vec<f32> = (0..NODES * DIM)
        .map(|i| ((i as u64 * 2_654_435_761) % 1000) as f32 / 500.0 - 1.0)
        .collect();
    let emb = EmbeddingMatrix::from_vec(NODES, DIM, data);
    Arc::new(EmbeddingStore::new(emb, Mlp::new(&[2 * DIM, 64, 1], OutputHead::Binary, 42)))
}

fn service() -> Arc<Service> {
    Arc::new(Service::new(store(), ParConfig::with_threads(2), BatchPolicy::default()))
}

#[test]
fn score_pairs_bits_do_not_depend_on_batch_size() {
    let store = store();
    let snap = store.load();
    let pairs: Vec<(u32, u32)> =
        (0..600u32).map(|i| ((i * 37) % NODES as u32, (i * 101 + 7) % NODES as u32)).collect();
    let alone: Vec<u32> =
        pairs.iter().map(|&p| score_pairs(&snap, &[p])[0].expect("valid pair").to_bits()).collect();
    for size in [2, 3, 4, 5, 8, 63, 64, 65, 255, 256, 257, pairs.len()] {
        for (c, chunk) in pairs.chunks(size).enumerate() {
            for (j, result) in score_pairs(&snap, chunk).into_iter().enumerate() {
                let i = c * size + j;
                assert_eq!(
                    result.expect("valid pair").to_bits(),
                    alone[i],
                    "pair {i} {:?} scored differently inside a batch of {size}",
                    pairs[i]
                );
            }
        }
    }
}

/// Good and bad requests of every read op. No `stats` or `metrics`
/// lines: their payloads count earlier requests, so they legitimately
/// differ between paths.
const SCRIPT: &[&str] = &[
    r#"{"op":"link_score","u":3,"v":17}"#,
    r#"{"op":"link_score","u":199,"v":0}"#,
    r#"{"op":"embedding","u":5}"#,
    r#"{"op":"topk","u":9,"k":4}"#,
    r#"{"op":"link_score","u":0,"v":200}"#,
    r#"{"op":"link_score","u":4000000,"v":1}"#,
    "{this is not json",
    r#"{"op":"warp_drive"}"#,
    r#"{"op":"link_score","u":1}"#,
    r#"{"op":"embedding","u":9999}"#,
    r#"{"op":"topk","u":9,"k":0}"#,
    r#"{"op":"topk","u":250,"k":3}"#,
    r#"{"op":"ingest","edges":[[1,2,0.5]]}"#,
    r#"{"op":"link_score","u":42,"v":42}"#,
    r#"{"op":"link_score","u":17,"v":3}"#,
    r#"{"op":"topk","u":0,"k":500}"#,
];

/// What the reactor does with a drained group: unparseable lines are
/// rejected on their own, parsed ones go through `respond_batch`.
fn via_respond_batch(svc: &Service, lines: &[&str]) -> Vec<String> {
    let mut out: Vec<Option<String>> = vec![None; lines.len()];
    let mut slots = Vec::new();
    let mut requests = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        match parse_request(line) {
            Ok(request) => {
                slots.push(i);
                requests.push(request);
            }
            Err(message) => out[i] = Some(svc.reject(&message)),
        }
    }
    for (slot, reply) in slots.into_iter().zip(svc.respond_batch(requests)) {
        out[slot] = Some(reply);
    }
    out.into_iter().map(|r| r.expect("every line answered")).collect()
}

/// Writes the whole script down one connection, then reads one reply
/// line per request.
fn over_tcp(addr: SocketAddr) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut payload = String::new();
    for line in SCRIPT {
        payload.push_str(line);
        payload.push('\n');
    }
    stream.write_all(payload.as_bytes()).expect("send script");
    SCRIPT
        .iter()
        .map(|line| {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read reply");
            assert!(reply.ends_with('\n'), "connection closed before answering {line:?}");
            reply.trim_end_matches('\n').to_string()
        })
        .collect()
}

#[test]
fn every_path_gives_byte_identical_replies() {
    let svc = service();
    let reference: Vec<String> = SCRIPT.iter().map(|line| svc.handle_line(line)).collect();
    assert!(reference[0].contains("\"ok\":true"), "{}", reference[0]);
    assert!(reference[4].contains("\"ok\":false"), "{}", reference[4]);

    assert_eq!(via_respond_batch(&svc, SCRIPT), reference, "respond_batch, one group");
    let alone: Vec<String> =
        SCRIPT.iter().flat_map(|line| via_respond_batch(&svc, &[line])).collect();
    assert_eq!(alone, reference, "respond_batch, groups of one");

    let blocking = Server::start(service(), "127.0.0.1:0", 2).expect("start blocking server");
    assert_eq!(over_tcp(blocking.local_addr()), reference, "blocking server");
    drop(blocking);

    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        use rwserve::{ReactorConfig, ReactorServer};
        let reactor = ReactorServer::start(service(), "127.0.0.1:0", ReactorConfig::default())
            .expect("start reactor server");
        assert_eq!(over_tcp(reactor.local_addr()), reference, "reactor server");
    }
}
