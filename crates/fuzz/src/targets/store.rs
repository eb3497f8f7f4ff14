//! Generative mutation fuzzing of the `store` container format.
//!
//! Extends the handcrafted corruption corpus (store/tests/corruption.rs)
//! from ~11 fixed cases to tape-driven coverage. Each input decodes to a
//! mutation plan applied to a freshly packed graph or snapshot image:
//!
//! * raw byte damage (flips, splices, truncation, growth) — usually
//!   stopped at a checksum wall;
//! * *forged* damage: patch a header/TOC field, then re-stamp the
//!   checksum chain so the mutated value reaches the semantic validation
//!   layers behind the checksums (bounds, alignment, CSR invariants).
//!
//! The contract under test: `Container::from_bytes` and the typed
//! openers return `Ok` or a structured `StoreError` — never a panic —
//! and an image that opens must serve every section read (no torn
//! reads: all checksums were verified up front).

use std::io::Cursor;
use std::sync::OnceLock;

use store::format::{checksum64, HEADER_LEN, TOC_ENTRY_LEN};
use store::Container;

use crate::rng::FuzzRng;
use crate::runner::FuzzTarget;
use crate::tape::Tape;

pub struct StoreTarget;

/// Base images are deterministic constants (fixed generator seeds), so
/// caching them does not violate the replay contract.
fn graph_image() -> &'static [u8] {
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let g = tgraph::gen::preferential_attachment(24, 3, 5).undirected(true).build();
        // A softmax sampler puts its CDF weights (`scdf`) beside the CSR.
        let prepared = twalk::TransitionSampler::Softmax.prepare(&g);
        let mut cur = Cursor::new(Vec::new());
        store::pack_graph(&mut cur, &g, Some(&prepared)).expect("pack graph");
        cur.into_inner()
    })
}

fn snapshot_image() -> &'static [u8] {
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let emb =
            embed::EmbeddingMatrix::from_vec(10, 4, (0..40).map(|i| i as f32 * 0.25).collect());
        let mlp = nn::Mlp::new(&[8, 8, 1], nn::OutputHead::Binary, 3);
        let mut cur = Cursor::new(Vec::new());
        store::pack_snapshot(&mut cur, 5, &emb, &mlp).expect("pack snapshot");
        cur.into_inner()
    })
}

/// Re-stamps the header checksum after `patch` (bounds-safe: a no-op on
/// images too short to carry a header).
fn forge_header(bytes: &mut [u8], patch: impl FnOnce(&mut [u8])) {
    if bytes.len() < HEADER_LEN {
        return;
    }
    patch(&mut bytes[..56]);
    let sum = checksum64(&bytes[..56]);
    bytes[56..64].copy_from_slice(&sum.to_le_bytes());
}

/// Re-stamps the TOC + header checksums after patching entry `index`.
/// Bounds-safe against images whose header fields were already mangled.
fn forge_toc_entry(bytes: &mut [u8], index: usize, patch: impl FnOnce(&mut [u8])) {
    if bytes.len() < HEADER_LEN {
        return;
    }
    let toc_offset = u64::from_le_bytes(bytes[32..40].try_into().expect("8")) as usize;
    let count = u32::from_le_bytes(bytes[24..28].try_into().expect("4")) as usize;
    let toc_len = match count.checked_mul(TOC_ENTRY_LEN) {
        Some(len) => len,
        None => return,
    };
    let index = if count == 0 { return } else { index % count };
    let start = toc_offset + index * TOC_ENTRY_LEN;
    if toc_offset.checked_add(toc_len).is_none_or(|end| end > bytes.len()) {
        return;
    }
    patch(&mut bytes[start..start + TOC_ENTRY_LEN]);
    let toc_sum = checksum64(&bytes[toc_offset..toc_offset + toc_len]);
    forge_header(bytes, |h| h[48..56].copy_from_slice(&toc_sum.to_le_bytes()));
}

/// Opens the image every way the production code does; panics surface
/// through the runner as failures. An `Ok` must serve all reads.
fn probe(bytes: &[u8]) -> Result<(), String> {
    if let Ok(c) = Container::from_bytes(bytes) {
        let names: Vec<String> = c.sections().iter().map(|s| s.name_str().to_string()).collect();
        for name in names {
            c.section_bytes(&name)
                .map_err(|e| format!("validated container refused section {name}: {e:?}"))?;
        }
    }
    if let Ok(opened) = store::open_graph_bytes(bytes) {
        // A graph that opens must be internally consistent enough to walk.
        let g = &opened.graph;
        for u in 0..g.num_nodes().min(64) {
            let (dsts, times) = g.neighbor_slices(u as u32);
            if dsts.len() != times.len() {
                return Err(format!("torn neighbor slices at vertex {u}"));
            }
        }
        // An opened sampler was checked against the graph, so walking it
        // must not panic either.
        if let Some(sampler) = &opened.sampler {
            let cfg = twalk::WalkConfig::new(1, 4).seed(1);
            twalk::generate_walks_prepared(g, &cfg, sampler, &par::ParConfig::with_threads(1));
        }
    }
    let _ = store::open_snapshot_bytes(bytes);
    Ok(())
}

impl FuzzTarget for StoreTarget {
    fn name(&self) -> &'static str {
        "store"
    }

    fn seed_corpus(&self) -> Vec<Vec<u8>> {
        vec![
            include_bytes!("../../tests/corpus/store/forged-toc-len.bin").to_vec(),
            include_bytes!("../../tests/corpus/store/truncated-header.bin").to_vec(),
        ]
    }

    fn generate(&self, rng: &mut FuzzRng) -> Vec<u8> {
        rng.bytes(160)
    }

    fn run(&self, input: &[u8]) -> Result<(), String> {
        let mut t = Tape::new(input);
        let mut image: Vec<u8> =
            if t.chance(128) { graph_image().to_vec() } else { snapshot_image().to_vec() };
        let mutations = t.choice(4) + 1;
        for _ in 0..mutations {
            match t.choice(7) {
                0 => {
                    // Raw byte damage at tape-chosen positions.
                    for _ in 0..t.choice(8) + 1 {
                        if image.is_empty() {
                            break;
                        }
                        let at = t.u32() as usize % image.len();
                        image[at] ^= t.u8() | 1;
                    }
                }
                1 => {
                    let cut = t.u32() as usize % (image.len() + 1);
                    image.truncate(cut);
                }
                2 => {
                    // Forge a header field behind a valid checksum.
                    let at = t.choice(56);
                    let val = t.u64();
                    forge_header(&mut image, |h| {
                        let end = (at + 8).min(56);
                        h[at..end].copy_from_slice(&val.to_le_bytes()[..end - at]);
                    });
                }
                3 => {
                    // Forge a TOC entry field behind valid checksums.
                    let index = t.choice(16);
                    let at = t.choice(TOC_ENTRY_LEN);
                    let val = t.u64();
                    forge_toc_entry(&mut image, index, |e| {
                        let end = (at + 8).min(TOC_ENTRY_LEN);
                        e[at..end].copy_from_slice(&val.to_le_bytes()[..end - at]);
                    });
                }
                4 => {
                    // Replace with garbage keeping a valid-looking prefix.
                    let keep = t.choice(image.len().min(128) + 1);
                    image.truncate(keep);
                    image.extend_from_slice(&t.bytes(96));
                }
                5 => image.extend_from_slice(&t.bytes(32)),
                _ => {
                    // Duplicate an internal span (misaligns everything after).
                    if !image.is_empty() {
                        let at = t.u32() as usize % image.len();
                        let len = (t.choice(64) + 1).min(image.len() - at);
                        let span: Vec<u8> = image[at..at + len].to_vec();
                        let dst = t.u32() as usize % (image.len() + 1);
                        image.splice(dst..dst, span);
                    }
                }
            }
        }
        probe(&image)
    }
}
