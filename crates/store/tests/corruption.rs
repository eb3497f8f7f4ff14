//! Corruption corpus: opening arbitrary or damaged bytes must always
//! return a structured [`StoreError`] — never a panic, never undefined
//! behavior. This file is the executable contract; it runs in-memory
//! only, so it works under miri and under `SIMD_FORCE_SCALAR=1`
//! unchanged.
//!
//! Corpus dimensions:
//! * bit flips in every header byte
//! * truncation at *every* byte boundary of a small file, and at every
//!   section boundary ± 1 of a larger one
//! * forged headers (bad magic / endianness / version / kind / length)
//!   with *valid* checksums, so the deeper validation layers are hit
//! * forged TOCs (misaligned offsets, out-of-bounds ranges, overlap
//!   with the header, bogus element sizes, duplicate names) with valid
//!   checksums
//! * deterministic pseudo-random garbage of many lengths

use std::io::Cursor;

use store::format::{checksum64, Header, SectionEntry, HEADER_LEN, TOC_ENTRY_LEN};
use store::{pack_graph, pack_snapshot, ArtifactKind, Container, StoreError, StoreWriter};

/// The graph behind [`graph_image`]. Under miri it shrinks: the
/// interpreter pays ~100× per instruction and the corpus sweeps whole
/// files repeatedly.
fn small_graph() -> tgraph::TemporalGraph {
    let (n, m) = if cfg!(miri) { (14, 2) } else { (40, 3) };
    tgraph::gen::preferential_attachment(n, m, 5).undirected(true).build()
}

/// A small but fully featured graph image: graph + a softmax sampler,
/// so it carries the sampler meta (`smet`) and the CDF weights (`scdf`).
fn graph_image() -> Vec<u8> {
    let g = small_graph();
    let prepared = twalk::TransitionSampler::Softmax.prepare(&g);
    let mut cur = Cursor::new(Vec::new());
    pack_graph(&mut cur, &g, Some(&prepared)).expect("pack");
    cur.into_inner()
}

/// A small snapshot image.
fn snapshot_image() -> Vec<u8> {
    let emb = embed::EmbeddingMatrix::from_vec(10, 4, (0..40).map(|i| i as f32 * 0.25).collect());
    let mlp = nn::Mlp::new(&[8, 8, 1], nn::OutputHead::Binary, 3);
    let mut cur = Cursor::new(Vec::new());
    pack_snapshot(&mut cur, 5, &emb, &mlp).expect("pack");
    cur.into_inner()
}

/// Patches header fields and re-stamps the header checksum, so forged
/// values reach the checks *behind* the checksum.
fn forge_header(bytes: &mut [u8], patch: impl FnOnce(&mut [u8])) {
    patch(&mut bytes[..56]);
    let sum = checksum64(&bytes[..56]);
    bytes[56..64].copy_from_slice(&sum.to_le_bytes());
}

/// Patches a TOC entry and re-stamps the TOC checksum in the header, so
/// forged section entries reach the per-section validation.
fn forge_toc_entry(bytes: &mut [u8], index: usize, patch: impl FnOnce(&mut [u8])) {
    let toc_offset = u64::from_le_bytes(bytes[32..40].try_into().expect("8")) as usize;
    let count = u32::from_le_bytes(bytes[24..28].try_into().expect("4")) as usize;
    let start = toc_offset + index * TOC_ENTRY_LEN;
    patch(&mut bytes[start..start + TOC_ENTRY_LEN]);
    let toc_sum = checksum64(&bytes[toc_offset..toc_offset + count * TOC_ENTRY_LEN]);
    forge_header(bytes, |h| h[48..56].copy_from_slice(&toc_sum.to_le_bytes()));
}

/// Every open of a damaged image must produce `Err`, and this helper
/// makes the test read as the contract: structured error, no panic.
fn assert_rejected(bytes: &[u8], what: &str) -> StoreError {
    match Container::from_bytes(bytes) {
        Err(e) => e,
        Ok(_) => panic!("{what}: corrupt image was accepted"),
    }
}

#[test]
fn valid_images_open() {
    let graph = Container::from_bytes(&graph_image()).expect("graph image");
    let names: Vec<&str> = graph.sections().iter().map(|s| s.name_str()).collect();
    assert_eq!(names, ["meta", "goff", "gdst", "gtim", "smet", "scdf"]);
    assert!(Container::from_bytes(&snapshot_image()).is_ok());
    assert!(store::open_graph_bytes(&graph_image()).is_ok());
    assert!(store::open_snapshot_bytes(&snapshot_image()).is_ok());
}

#[test]
fn every_header_byte_flip_is_rejected() {
    let image = graph_image();
    let bits: &[u8] = if cfg!(miri) { &[0x01] } else { &[0x01, 0x80] };
    for byte in 0..HEADER_LEN {
        for &bit in bits {
            let mut bad = image.clone();
            bad[byte] ^= bit;
            let err = assert_rejected(&bad, &format!("header byte {byte} bit {bit:#x}"));
            // Whatever the specific variant, it must be a header-layer
            // error — never a section checksum (the header is checked
            // first) and never success.
            assert!(
                matches!(
                    err,
                    StoreError::BadMagic { .. }
                        | StoreError::HeaderChecksum { .. }
                        | StoreError::Endianness { .. }
                        | StoreError::UnsupportedVersion { .. }
                        | StoreError::UnknownKind { .. }
                        | StoreError::Truncated { .. }
                        | StoreError::Misaligned { .. }
                        | StoreError::OutOfBounds { .. }
                        | StoreError::TocChecksum { .. }
                ),
                "header byte {byte}: unexpected error class {err:?}"
            );
        }
    }
}

#[test]
fn truncation_at_every_byte_of_a_small_image_is_rejected() {
    let image = snapshot_image();
    // Full byte sweep natively; strided under miri (the boundary-focused
    // sweep below still runs exact ±1 cuts there).
    let step = if cfg!(miri) { 13 } else { 1 };
    for cut in (0..image.len()).step_by(step) {
        let err = assert_rejected(&image[..cut], &format!("truncated to {cut}"));
        assert!(
            matches!(err, StoreError::Truncated { .. } | StoreError::HeaderChecksum { .. }),
            "cut {cut}: unexpected error class {err:?}"
        );
    }
}

#[test]
fn truncation_at_every_section_boundary_is_rejected() {
    let image = graph_image();
    let c = Container::from_bytes(&image).expect("valid image");
    let mut cuts: Vec<usize> = vec![0, 1, HEADER_LEN - 1, HEADER_LEN, HEADER_LEN + 1];
    for s in c.sections() {
        for d in [-1i64, 0, 1] {
            let cut = (s.offset as i64 + d).clamp(0, image.len() as i64) as usize;
            cuts.push(cut);
            let end = ((s.offset + s.len) as i64 + d).clamp(0, image.len() as i64) as usize;
            cuts.push(end);
        }
    }
    cuts.push(image.len() - 1);
    drop(c);
    for cut in cuts {
        if cut == image.len() {
            continue; // not a truncation
        }
        assert_rejected(&image[..cut], &format!("truncated to {cut}"));
    }
}

#[test]
fn appended_garbage_is_rejected() {
    // file_len is part of the committed header: extra trailing bytes are
    // as invalid as missing ones.
    let mut image = graph_image();
    image.extend_from_slice(&[0u8; 17]);
    let err = assert_rejected(&image, "appended garbage");
    assert!(matches!(err, StoreError::Truncated { .. }), "got {err:?}");
}

#[test]
fn forged_magic_version_endianness_and_kind_are_rejected() {
    let image = graph_image();

    let mut bad = image.clone();
    forge_header(&mut bad, |h| h[..8].copy_from_slice(b"NOTASTOR"));
    assert!(matches!(assert_rejected(&bad, "magic"), StoreError::BadMagic { .. }));

    let mut bad = image.clone();
    forge_header(&mut bad, |h| h[8..16].reverse()); // byte-swapped endian marker
    assert!(matches!(assert_rejected(&bad, "endianness"), StoreError::Endianness { .. }));

    let mut bad = image.clone();
    forge_header(&mut bad, |h| h[16..20].copy_from_slice(&99u32.to_le_bytes()));
    let err = assert_rejected(&bad, "version");
    match err {
        StoreError::UnsupportedVersion { found, supported } => {
            assert_eq!(found, 99);
            assert_eq!(supported, store::format::FORMAT_VERSION);
        }
        other => panic!("version: unexpected {other:?}"),
    }

    // An older file is refused the same way, and the message does not
    // call it newer.
    let mut bad = image.clone();
    forge_header(&mut bad, |h| h[16..20].copy_from_slice(&1u32.to_le_bytes()));
    let err = assert_rejected(&bad, "old version");
    assert!(matches!(err, StoreError::UnsupportedVersion { found: 1, .. }), "{err:?}");
    let message = err.to_string();
    assert!(!message.contains("newer"), "{message}");
    assert!(message.contains("version 1") && message.contains("version 3"), "{message}");

    // A version-2 file (method map and CDF row starts beside `scdf`) is
    // refused before any of its sections is read.
    let mut bad = image.clone();
    forge_header(&mut bad, |h| h[16..20].copy_from_slice(&2u32.to_le_bytes()));
    let err = assert_rejected(&bad, "version 2");
    assert!(matches!(err, StoreError::UnsupportedVersion { found: 2, .. }), "{err:?}");

    let mut bad = image.clone();
    forge_header(&mut bad, |h| h[20..24].copy_from_slice(&7u32.to_le_bytes()));
    assert!(matches!(assert_rejected(&bad, "kind"), StoreError::UnknownKind { .. }));

    // Kind confusion between valid kinds: caught at the artifact layer.
    let graph = graph_image();
    let snap = snapshot_image();
    assert!(matches!(
        store::open_snapshot_bytes(&graph).unwrap_err(),
        StoreError::WrongKind { .. }
    ));
    assert!(matches!(store::open_graph_bytes(&snap).unwrap_err(), StoreError::WrongKind { .. }));
}

#[test]
fn forged_toc_entries_are_rejected() {
    let image = graph_image();

    // Misaligned section offset (valid checksum, off the 64-byte grid).
    let mut bad = image.clone();
    forge_toc_entry(&mut bad, 0, |e| {
        let off = u64::from_le_bytes(e[8..16].try_into().expect("8")) + 4;
        e[8..16].copy_from_slice(&off.to_le_bytes());
    });
    assert!(matches!(assert_rejected(&bad, "misaligned"), StoreError::Misaligned { .. }));

    // Offset pointing into the header.
    let mut bad = image.clone();
    forge_toc_entry(&mut bad, 0, |e| e[8..16].copy_from_slice(&0u64.to_le_bytes()));
    assert!(matches!(assert_rejected(&bad, "into header"), StoreError::OutOfBounds { .. }));

    // Length escaping the file (and overflowing ranges).
    for len in [u64::MAX, 1 << 60, image.len() as u64] {
        let mut bad = image.clone();
        forge_toc_entry(&mut bad, 1, |e| e[16..24].copy_from_slice(&len.to_le_bytes()));
        let err = assert_rejected(&bad, &format!("len {len}"));
        assert!(
            matches!(err, StoreError::OutOfBounds { .. } | StoreError::Misaligned { .. }),
            "len {len}: got {err:?}"
        );
    }

    // Element size that is not 1/4/8.
    let mut bad = image.clone();
    forge_toc_entry(&mut bad, 0, |e| e[24..28].copy_from_slice(&3u32.to_le_bytes()));
    assert!(matches!(assert_rejected(&bad, "elem size"), StoreError::Invalid { .. }));

    // Duplicate section names.
    let mut bad = image.clone();
    let first_name: [u8; 8] = bad[{
        let toc = u64::from_le_bytes(bad[32..40].try_into().expect("8")) as usize;
        toc..toc + 8
    }]
    .try_into()
    .expect("8");
    forge_toc_entry(&mut bad, 1, |e| e[..8].copy_from_slice(&first_name));
    assert!(matches!(assert_rejected(&bad, "duplicate"), StoreError::DuplicateSection { .. }));
}

#[test]
fn every_payload_section_bit_flip_is_rejected() {
    let image = graph_image();
    let c = Container::from_bytes(&image).expect("valid image");
    let targets: Vec<(String, usize)> = c
        .sections()
        .iter()
        .map(|s| (s.name_str().to_string(), (s.offset + s.len / 2) as usize))
        .collect();
    drop(c);
    for (name, pos) in targets {
        let mut bad = image.clone();
        bad[pos] ^= 0x40;
        let err = assert_rejected(&bad, &format!("payload of {name}"));
        match err {
            StoreError::SectionChecksum { section, .. } => assert_eq!(section, name),
            other => panic!("payload of {name}: unexpected {other:?}"),
        }
    }
}

#[test]
fn semantically_inconsistent_graph_sections_are_rejected() {
    // A graph whose CSR invariants are broken but whose checksums are
    // fine: decreasing offsets must be caught by from_csr_parts, as a
    // structured Invalid — the walk kernels never see such a graph.
    let mut cur = Cursor::new(Vec::new());
    {
        let mut w = StoreWriter::new(&mut cur, ArtifactKind::Graph).expect("writer");
        w.begin_section("meta", 8).expect("b");
        w.write_u64s(&[2, 3]).expect("w");
        w.end_section().expect("e");
        w.begin_section("goff", 8).expect("b");
        w.write_u64s(&[0, 3, 1]).expect("w"); // decreasing
        w.end_section().expect("e");
        w.begin_section("gdst", 4).expect("b");
        w.write_u32s(&[0, 1, 0]).expect("w");
        w.end_section().expect("e");
        w.begin_section("gtim", 8).expect("b");
        w.write_f64s(&[0.1, 0.2, 0.3]).expect("w");
        w.end_section().expect("e");
        w.finish().expect("finish");
    }
    let err = store::open_graph_bytes(&cur.into_inner()).unwrap_err();
    assert!(matches!(err, StoreError::Invalid { .. }), "got {err:?}");
}

#[test]
fn short_cdf_section_is_rejected() {
    // Well-checksummed sampler sections that disagree with the graph: a
    // CDF one weight short would leave the last vertex's row running
    // past the table, so opening must refuse it before any walk runs.
    let g = small_graph();
    let prepared = twalk::TransitionSampler::Softmax.prepare(&g);
    let Some(twalk::SamplerTables::Weighted { span, cdf, .. }) = prepared.export_tables() else {
        panic!("softmax exports weighted tables");
    };
    let (offsets, dsts, times) = g.csr_parts();
    let mut cur = Cursor::new(Vec::new());
    {
        let mut w = StoreWriter::new(&mut cur, ArtifactKind::Graph).expect("writer");
        w.begin_section("meta", 8).expect("b");
        w.write_u64s(&[g.num_nodes() as u64, g.num_edges() as u64]).expect("w");
        w.end_section().expect("e");
        w.begin_section("goff", 8).expect("b");
        w.write_usizes(offsets).expect("w");
        w.end_section().expect("e");
        w.begin_section("gdst", 4).expect("b");
        w.write_u32s(dsts).expect("w");
        w.end_section().expect("e");
        w.begin_section("gtim", 8).expect("b");
        w.write_f64s(times).expect("w");
        w.end_section().expect("e");
        w.begin_section("smet", 8).expect("b");
        w.write_u64s(&[2, span.to_bits()]).expect("w");
        w.end_section().expect("e");
        w.begin_section("scdf", 8).expect("b");
        w.write_f64s(&cdf[..cdf.len() - 1]).expect("w");
        w.end_section().expect("e");
        w.finish().expect("finish");
    }
    let err = store::open_graph_bytes(&cur.into_inner()).unwrap_err();
    match err {
        StoreError::Invalid { what, message } => {
            assert_eq!(what, "sampler sections");
            assert!(message.contains("weights"), "{message}");
        }
        other => panic!("short scdf: unexpected {other:?}"),
    }
}

#[test]
fn pseudo_random_garbage_never_panics() {
    // Deterministic LCG; no entropy needed, the point is panic-freedom
    // over a broad spread of shapes and lengths.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u8
    };
    for len in [0usize, 1, 7, 8, 63, 64, 65, 100, 104, 256, 1000, 4096] {
        for _round in 0..8 {
            let bytes: Vec<u8> = (0..len).map(|_| next()).collect();
            assert!(Container::from_bytes(&bytes).is_err(), "garbage of len {len} accepted");
        }
    }
    // Garbage behind a valid header prefix: forge a plausible header
    // onto random tails.
    let image = graph_image();
    for len in [65usize, 128, 200] {
        let mut bytes: Vec<u8> = image[..64.min(image.len())].to_vec();
        bytes.extend((64..len).map(|_| next()));
        assert!(Container::from_bytes(&bytes).is_err(), "forged prefix of len {len} accepted");
    }
}

#[test]
fn header_constants_are_pinned() {
    // The on-disk format is a compatibility contract; these values can
    // only change together with a FORMAT_VERSION bump (DESIGN.md §14).
    let image = graph_image();
    assert_eq!(&image[..8], b"RWSTORE\0");
    assert_eq!(u64::from_le_bytes(image[8..16].try_into().expect("8")), 0x0123_4567_89AB_CDEF);
    assert_eq!(u32::from_le_bytes(image[16..20].try_into().expect("4")), 3);
    let h = Header::decode(&image).expect("header");
    assert_eq!(h.kind, ArtifactKind::Graph);
    // TOC entries decode with the pinned 40-byte stride.
    let toc = h.toc_offset as usize;
    let e = SectionEntry::decode(&image[toc..toc + TOC_ENTRY_LEN]);
    assert_eq!(e.name_str(), "meta");
}
