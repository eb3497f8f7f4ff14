//! Golden digests of 1-thread training: any change to the SGNS step that
//! moves a single output float fails here.
//!
//! Each case hashes (FNV-1a-64 over the little-endian `f32` bits) the
//! embeddings `train` and a warm-started `train_from` produce on a fixed
//! SBM corpus. The AVX2 kernels reassociate sums, so the expected values
//! are keyed on the dispatched backend; `SIMD_FORCE_SCALAR=1` pins the
//! scalar table.

use embed::{train, train_from, EmbeddingMatrix, Word2VecConfig};
use par::ParConfig;
use simd::Backend;
use twalk::{generate_walks, WalkConfig, WalkSet};

fn fnv1a64(words: impl Iterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn digest(emb: &EmbeddingMatrix) -> u64 {
    fnv1a64(emb.as_slice().iter().map(|x| x.to_bits()))
}

/// SBM(3000): 6 communities, 60k edges, 10 walks of up to 6 vertices per
/// node.
fn corpus() -> (WalkSet, usize) {
    let gen = tgraph::gen::temporal_sbm(3_000, 6, 60_000, 0.9, 7);
    let g = gen.builder.undirected(true).build();
    let walks = generate_walks(&g, &WalkConfig::new(10, 6).seed(1), &ParConfig::with_threads(1));
    (walks, g.num_nodes())
}

/// `(name, cfg)` of every case. The last one's window 10 and 12
/// negatives give windows of up to 20 context rows and 13 targets, so the
/// kernels' multi-group and heap-scratch paths run too.
fn cases() -> Vec<(&'static str, Word2VecConfig)> {
    let cfg = Word2VecConfig::default().epochs(2).seed(5);
    let mut wide = cfg.clone();
    (wide.window, wide.negatives) = (10, 12);
    vec![
        ("d8", cfg.clone().dim(8)),
        ("d13", cfg.clone().dim(13)),
        ("d128", cfg.dim(128)),
        ("d8w10n12", wide.dim(8)),
    ]
}

/// `(case, train, train_from)` digests for each table.
const AVX2: [(&str, u64, u64); 4] = [
    ("d8", 0x7812_3b32_a222_16df, 0x3628_a37e_2dab_4a31),
    ("d13", 0x5277_828b_e4c9_101f, 0x659c_bad8_2fe8_01cf),
    ("d128", 0x5576_02db_5c2f_7946, 0x749e_d0f9_f4e5_5958),
    ("d8w10n12", 0xb204_0464_2927_0448, 0x363d_b6c2_0c45_7114),
];
const SCALAR: [(&str, u64, u64); 4] = [
    ("d8", 0x7453_72ef_a9e7_767a, 0x4e91_f00e_446f_4b92),
    ("d13", 0x46a3_3013_f1ad_75a1, 0x3af1_4fdf_7cf8_0c0f),
    ("d128", 0x31ab_f192_d655_b535, 0xe2b5_093b_7fdf_b350),
    ("d8w10n12", 0xf936_3e42_f96d_f49e, 0x46ca_6171_2f8f_1fe0),
];

#[test]
fn one_thread_training_matches_golden_digests() {
    let (walks, n) = corpus();
    let par = ParConfig::with_threads(1);
    // NEON runs the scalar window kernel.
    let expected = match simd::active_backend() {
        Backend::Avx2Fma => AVX2,
        Backend::Scalar | Backend::Neon => SCALAR,
    };
    let mut got = Vec::new();
    for (name, cfg) in cases() {
        let base = train(&walks, n, &cfg, &par);
        // Warm start onto 10 new vertices, as an incremental refresh does.
        let warm = train_from(&walks, n + 10, &base, &cfg.clone().epochs(1), &par);
        got.push((name, digest(&base), digest(&warm)));
    }
    let show = |rows: &[(&str, u64, u64)]| {
        rows.iter().map(|(c, t, w)| format!("{c}: {t:016x} / {w:016x}")).collect::<Vec<_>>()
    };
    assert_eq!(show(&got), show(&expected), "backend {}", simd::active_backend());
}
