//! The paper's word2vec ablations (Figs. 5–6), kept as reference
//! variants of the production trainer ([`crate::train`]).
//!
//! * **Sentence batching** ([`train_batched`], Fig. 5): sentences within a
//!   batch update the shared model concurrently ("hogwild"), batches run
//!   one after another, each modeling one GPU kernel launch.
//! * **Storage layout** ([`Layout`], Fig. 6 "No-pad"): cache-line padded
//!   vs packed embedding rows.
//! * **Reduction strategy** ([`Reduction`], Fig. 6 "Coalesce" /
//!   "Par-red"): word2vec's per-pair loop with scalar or 4-lane unrolled
//!   dot products, vs the production window-batched step.
//! * **Locking** ([`train_locked`]): one global mutex around every
//!   sentence, the baseline hogwild is measured against.
//!
//! Every variant runs the production driver; only its plan (batch size,
//! row stride, lock, per-sentence step) differs.

// Indexed loops over parallel arrays are the intended idiom here.
#![allow(clippy::needless_range_loop)]

use std::cell::RefCell;
use std::time::{Duration, Instant};

use par::ParConfig;
use twalk::{WalkRng, WalkSet};

use crate::train::{run_training, PairStep, Plan};
use crate::{EmbeddingMatrix, NegativeTable, SharedMatrix, SigmoidTable, Word2VecConfig};

/// Embedding-row storage layout (paper Fig. 6 "No-pad" ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Layout {
    /// Rows padded to a 64-byte cache line (16 `f32`s) — the layout a prior
    /// GPU implementation used to avoid false sharing. Wasteful when
    /// `d = 8` occupies half a line.
    Padded,
    /// Rows packed back-to-back — the paper's optimized layout, and the
    /// one [`crate::train`] uses.
    #[default]
    Packed,
}

impl Layout {
    /// Row stride in floats for `dim`-wide rows.
    fn stride(self, dim: usize) -> usize {
        match self {
            Layout::Packed => dim,
            Layout::Padded => dim.div_ceil(16) * 16,
        }
    }
}

/// Inner-product / accumulation strategy (paper Fig. 6 "Coalesce" and
/// "Par-red" ablations, mapped onto CPU SIMD-friendly loop shapes).
/// `Scalar` and `Chunked` run word2vec's per-pair loop; `Simd` runs the
/// production window-batched step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reduction {
    /// Straightforward scalar loop over per-element atomics.
    Scalar,
    /// 4-lane unrolled loops (coalesced access + parallel reduction
    /// analog), which the compiler vectorizes.
    Chunked,
    /// The window-batched step [`crate::train`] runs: negatives drawn once
    /// per center and shared by its whole window, with scores and updates
    /// in one `simd::sgns_window` call — see DESIGN.md §10.
    #[default]
    Simd,
}

impl Reduction {
    /// The per-pair step this strategy trains with; `None` for the
    /// production window-batched step.
    fn pair_step(self) -> Option<PairStep> {
        match self {
            Reduction::Scalar => Some(pair_sentence::<false>),
            Reduction::Chunked => Some(pair_sentence::<true>),
            Reduction::Simd => None,
        }
    }
}

/// Throughput accounting for a batched run (feeds the Fig. 5 study, where
/// each batch corresponds to one GPU kernel launch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRunStats {
    /// Number of sentence batches processed (= modeled kernel launches).
    pub batches: usize,
    /// Total tokens consumed across all epochs.
    pub tokens: usize,
    /// Wall-clock training time, model and table setup included.
    pub duration: Duration,
}

/// Trains embeddings processing sentences in batches of `batch_size`:
/// batches run one after another (each models a GPU kernel launch), and
/// sentences *within* a batch update the shared model concurrently —
/// the paper's §V-B batching optimization — with rows stored as `layout`
/// says and each sentence trained by the `reduction` step.
///
/// `batch_size = 1` reproduces the unbatched baseline (one "launch" per
/// sentence, no intra-batch parallelism); `usize::MAX` with
/// `Layout::Packed` and `Reduction::Simd` is [`crate::train`].
///
/// # Panics
///
/// Panics if the corpus is empty, `batch_size == 0`, or any token is out of
/// range for `num_nodes`.
pub fn train_batched(
    corpus: &WalkSet,
    num_nodes: usize,
    cfg: &Word2VecConfig,
    par: &ParConfig,
    batch_size: usize,
    layout: Layout,
    reduction: Reduction,
) -> (EmbeddingMatrix, BatchRunStats) {
    let plan = Plan {
        batch_size,
        stride: layout.stride(cfg.dim),
        lock: false,
        pair: reduction.pair_step(),
    };
    let start = Instant::now();
    let (emb, batches) = run_training(corpus, num_nodes, cfg, par, &plan, None);
    let tokens = corpus.total_vertices() * cfg.epochs;
    (emb, BatchRunStats { batches, tokens, duration: start.elapsed() })
}

/// Coarse-lock ablation baseline for hogwild: identical updates, but a
/// single global mutex serializes every sentence's model access. Exists to
/// quantify what lock-free staleness-tolerant updates buy (the design
/// choice behind the paper's batching optimization); see the
/// `bench_w2v` `locking` group.
///
/// # Panics
///
/// Panics if the corpus is empty or any token is out of range.
pub fn train_locked(
    corpus: &WalkSet,
    num_nodes: usize,
    cfg: &Word2VecConfig,
    par: &ParConfig,
) -> EmbeddingMatrix {
    let plan = Plan { batch_size: usize::MAX, stride: cfg.dim, lock: true, pair: None };
    run_training(corpus, num_nodes, cfg, par, &plan, None).0
}

/// Per-thread scratch of [`pair_sentence`].
#[derive(Default)]
struct PairScratch {
    /// The window's context vertices.
    ctx: Vec<usize>,
    /// The context row being trained (dim).
    h: Vec<f32>,
    /// The target row being read (dim).
    tmp: Vec<f32>,
    /// The context row's error accumulator (dim).
    e: Vec<f32>,
}

thread_local! {
    static PAIR_SCRATCH: RefCell<PairScratch> = RefCell::new(PairScratch::default());
}

/// word2vec's per-pair skip-gram pass over a sentence, the `Scalar` /
/// `Chunked` reduction ablation (paper Fig. 6): windows are chosen as in
/// the production step ([`crate::train`]), but every context word draws
/// its own negatives and updates each target row before the next target
/// is scored. `CHUNKED` picks the 4-lane unrolled dot product over the
/// scalar one.
#[allow(clippy::too_many_arguments)]
fn pair_sentence<const CHUNKED: bool>(
    walk: &[tgraph::NodeId],
    syn0: &SharedMatrix,
    syn1: &SharedMatrix,
    table: &NegativeTable,
    sigmoid: &SigmoidTable,
    cfg: &Word2VecConfig,
    lr: f32,
    rng: &mut WalkRng,
) -> (u64, u64) {
    let dim = cfg.dim;
    let mut steps = 0u64;
    let mut draws = 0u64;
    PAIR_SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        s.h.resize(dim, 0.0);
        s.tmp.resize(dim, 0.0);
        s.e.resize(dim, 0.0);
        for i in 0..walk.len() {
            let center = walk[i] as usize;
            // Shrunk window, as in reference word2vec.
            let b = 1 + rng.next_bounded(cfg.window);
            let lo = i.saturating_sub(b);
            let hi = (i + b).min(walk.len() - 1);
            s.ctx.clear();
            s.ctx.extend((lo..=hi).filter(|&j| j != i).map(|j| walk[j] as usize));
            for &input in &s.ctx {
                syn0.read_row(input, &mut s.h);
                s.e.fill(0.0);
                for k in 0..=cfg.negatives {
                    let (target, label) = if k == 0 {
                        (center, 1.0f32)
                    } else {
                        draws += 1;
                        let t = table.sample(rng) as usize;
                        if t == center {
                            continue;
                        }
                        (t, 0.0)
                    };
                    steps += 1;
                    let f = if CHUNKED {
                        syn1.dot_chunked(target, &s.h)
                    } else {
                        syn1.dot_scalar(target, &s.h)
                    };
                    let g = (label - sigmoid.get(f)) * lr;
                    syn1.read_row(target, &mut s.tmp);
                    for (ev, &tv) in s.e.iter_mut().zip(s.tmp.iter()) {
                        *ev += g * tv;
                    }
                    syn1.add_scaled(target, g, &s.h);
                }
                syn0.add_scaled(input, 1.0, &s.e);
            }
        }
    });
    (steps, draws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::tests::{mean_intra_inter, two_community_corpus};

    #[test]
    fn stride_depends_on_layout() {
        assert_eq!(Layout::Packed.stride(8), 8);
        assert_eq!(Layout::Padded.stride(8), 16);
        assert_eq!(Layout::Padded.stride(20), 32);
    }

    #[test]
    fn batched_and_unbatched_have_same_token_accounting() {
        let (corpus, n) = two_community_corpus();
        let cfg = Word2VecConfig::default().epochs(2).seed(3);
        let par = ParConfig::with_threads(2);
        let (packed, simd) = (Layout::Packed, Reduction::Simd);
        let (_e1, s1) = train_batched(&corpus, n, &cfg, &par, 7, packed, simd);
        let (_e2, s2) = train_batched(&corpus, n, &cfg, &par, usize::MAX, packed, simd);
        assert_eq!(s1.tokens, s2.tokens);
        assert_eq!(s2.batches, 2); // one per epoch
        assert_eq!(s1.batches, 2 * corpus.num_walks().div_ceil(7));
    }

    #[test]
    fn layout_and_reduction_variants_learn_equally() {
        let (corpus, n) = two_community_corpus();
        for layout in [Layout::Packed, Layout::Padded] {
            for reduction in [Reduction::Scalar, Reduction::Chunked, Reduction::Simd] {
                let cfg = Word2VecConfig::default().epochs(6).seed(4);
                let par = ParConfig::with_threads(1);
                let (emb, _) = train_batched(&corpus, n, &cfg, &par, usize::MAX, layout, reduction);
                let (intra, inter) = mean_intra_inter(&emb);
                assert!(intra > inter, "{layout:?}/{reduction:?}: intra {intra} <= inter {inter}");
            }
        }
    }

    #[test]
    fn locked_training_matches_hogwild_quality() {
        let (corpus, n) = two_community_corpus();
        let cfg = Word2VecConfig::default().epochs(6).seed(8);
        let emb = train_locked(&corpus, n, &cfg, &ParConfig::with_threads(4));
        let (intra, inter) = mean_intra_inter(&emb);
        assert!(intra > inter + 0.2, "locked: intra {intra} inter {inter}");
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_panics() {
        let (corpus, n) = two_community_corpus();
        let (cfg, par) = (Word2VecConfig::default(), ParConfig::default());
        let _ = train_batched(&corpus, n, &cfg, &par, 0, Layout::Packed, Reduction::Simd);
    }
}
