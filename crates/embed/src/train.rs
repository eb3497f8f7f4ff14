//! The SGNS trainer: hogwild-parallel window-batched skip-gram.

// Indexed loops over parallel arrays are the intended idiom here.
#![allow(clippy::needless_range_loop)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use par::{parallel_chunks, ParConfig};
use twalk::{WalkRng, WalkSet};

use crate::{EmbeddingMatrix, NegativeTable, SharedMatrix, SigmoidTable, Word2VecConfig};

/// Trains embeddings over the whole corpus with hogwild parallelism:
/// each epoch is one parallel region whose sentences update the shared
/// model concurrently.
///
/// # Panics
///
/// Panics if the corpus is empty or any token is `>= num_nodes`.
///
/// # Examples
///
/// ```
/// use embed::{train, Word2VecConfig};
/// use par::ParConfig;
/// use twalk::WalkSet;
///
/// let corpus = WalkSet::from_walks(&[vec![0, 1, 2], vec![2, 1, 0], vec![1, 0, 2]], 4);
/// let emb = train(&corpus, 3, &Word2VecConfig::default().epochs(2), &ParConfig::with_threads(1));
/// assert_eq!(emb.num_nodes(), 3);
/// ```
pub fn train(
    corpus: &WalkSet,
    num_nodes: usize,
    cfg: &Word2VecConfig,
    par: &ParConfig,
) -> EmbeddingMatrix {
    run_training(corpus, num_nodes, cfg, par, &Plan::production(cfg), None).0
}

/// Continues training from existing embeddings (warm start) — the
/// incremental-refresh primitive. `initial` seeds the input vectors;
/// vertices beyond `initial.num_nodes()` (new arrivals) get fresh random
/// init. The output-side (`syn1`) context vectors restart from zero, a
/// standard approximation for incremental SGNS.
///
/// # Panics
///
/// Panics if the corpus is empty, `cfg.dim != initial.dim()`, or
/// `num_nodes < initial.num_nodes()`.
pub fn train_from(
    corpus: &WalkSet,
    num_nodes: usize,
    initial: &EmbeddingMatrix,
    cfg: &Word2VecConfig,
    par: &ParConfig,
) -> EmbeddingMatrix {
    run_training(corpus, num_nodes, cfg, par, &Plan::production(cfg), Some(initial)).0
}

/// word2vec's per-pair skip-gram pass over a sentence (the Fig. 6
/// reduction ablations in [`crate::ablation`]), drawing its windows and
/// negatives from the sentence's stream as it goes: returns
/// `(gradient_steps, negative_table_draws)`.
pub(crate) type PairStep = fn(
    &[tgraph::NodeId],
    &SharedMatrix,
    &SharedMatrix,
    &NegativeTable,
    &SigmoidTable,
    &Word2VecConfig,
    f32,
    &mut WalkRng,
) -> (u64, u64);

/// How the shared driver runs: fixed by [`train`] and [`train_from`],
/// varied by the Fig. 5/6 ablations in [`crate::ablation`].
pub(crate) struct Plan {
    /// Sentences per batch; batches run one after another, and the
    /// sentences within one update the model concurrently.
    pub batch_size: usize,
    /// Row stride of the model matrices, in floats.
    pub stride: usize,
    /// Serializes every sentence behind one global mutex.
    pub lock: bool,
    /// `None` runs the production window-batched step, drawn one
    /// sentence ahead ([`Draws`]); `Some` runs a per-pair ablation step.
    pub pair: Option<PairStep>,
}

impl Plan {
    /// One batch per epoch, packed rows, lock-free window-batched steps.
    fn production(cfg: &Word2VecConfig) -> Self {
        Self { batch_size: usize::MAX, stride: cfg.dim, lock: false, pair: None }
    }
}

/// The one shared training driver: validates inputs, builds the model
/// matrices / negative table / sigmoid table / decayed-lr accounting
/// exactly once, optionally seeds a warm start, and runs the epoch ×
/// batch loop as `plan` says. Returns the input embeddings and the
/// number of batches run.
pub(crate) fn run_training(
    corpus: &WalkSet,
    num_nodes: usize,
    cfg: &Word2VecConfig,
    par: &ParConfig,
    plan: &Plan,
    warm_start: Option<&EmbeddingMatrix>,
) -> (EmbeddingMatrix, usize) {
    assert!(plan.batch_size > 0, "batch size must be positive");
    assert!(cfg.dim > 0, "Word2VecConfig::dim must be positive");
    assert!(cfg.window > 0, "Word2VecConfig::window must be positive");
    assert!(cfg.epochs > 0, "Word2VecConfig::epochs must be positive");
    let n_sentences = corpus.num_walks();
    assert!(n_sentences > 0, "empty corpus");
    if let Some(initial) = warm_start {
        assert_eq!(cfg.dim, initial.dim(), "dimension mismatch with initial embeddings");
        assert!(
            num_nodes >= initial.num_nodes(),
            "node count shrank below the initial embedding table"
        );
    }
    let total_tokens = corpus.total_vertices() * cfg.epochs;

    let syn0 = SharedMatrix::uniform_init(num_nodes, cfg.dim, plan.stride, cfg.seed);
    if let Some(initial) = warm_start {
        for v in 0..initial.num_nodes() {
            syn0.write_row(v, initial.get(v as tgraph::NodeId));
        }
    }
    let syn1 = SharedMatrix::zeros(num_nodes, cfg.dim, plan.stride);
    let table =
        NegativeTable::from_corpus(corpus, num_nodes, NegativeTable::recommended_size(num_nodes));
    let sigmoid = SigmoidTable::default();
    let processed = AtomicU64::new(0);
    let lock = plan.lock.then(|| Mutex::new(()));

    // Observability (RW-P2): per-epoch wall time plus exact gradient-step
    // and negative-draw totals. The counts are tallied in plain per-chunk
    // locals inside the worker and flushed with one relaxed add per
    // *chunk* (not per sentence, and never per update), so the hogwild
    // inner loop sees no shared-cacheline traffic from metrics; when the
    // recorder is off the flush handles are inlined no-ops.
    let rec = obs::Recorder::global();
    let epoch_hist = rec.histogram("embed_epoch_ns");
    let tokens_ctr = rec.counter("embed_tokens_total");
    let steps_ctr = rec.counter("embed_grad_steps_total");
    let draws_ctr = rec.counter("embed_negative_draws_total");

    let mut batches = 0usize;
    for epoch in 0..cfg.epochs {
        let epoch_t0 = rec.is_enabled().then(Instant::now);
        let mut lo = 0usize;
        while lo < n_sentences {
            let hi = lo.saturating_add(plan.batch_size).min(n_sentences);
            batches += 1;
            let batch_len = hi - lo;
            // Within a batch: concurrent (stale-read tolerant) updates.
            parallel_chunks(par, batch_len, |cs, ce| {
                let (first, end) = (lo + cs, lo + ce);
                let mut chunk_steps = 0u64;
                let mut chunk_draws = 0u64;
                // The lr clock advances once per chunk; each sentence's
                // position is the chunk's base plus a local offset, which
                // on one thread is exactly the per-sentence schedule.
                let chunk_tokens: usize = (first..end).map(|s| corpus.walk(s).len()).sum();
                let mut done = processed.fetch_add(chunk_tokens as u64, Ordering::Relaxed);
                // Every sentence draws from its own stream, so drawing one
                // sentence ahead changes no draw and no float.
                let stream = |s: usize| WalkRng::from_stream(cfg.seed, epoch as u64, s as u64);
                SCRATCH.with_borrow_mut(|sc| {
                    if plan.pair.is_none() {
                        sc.next.draw(corpus.walk(first), &table, cfg, &mut stream(first));
                    }
                    for s in first..end {
                        let walk = corpus.walk(s);
                        let lr = lr_at(cfg, done, total_tokens);
                        done += walk.len() as u64;
                        let (steps, draws) = match plan.pair {
                            Some(step) => {
                                let _guard = lock.as_ref().map(|l| l.lock().expect(POISONED));
                                let mut rng = stream(s);
                                step(walk, &syn0, &syn1, &table, &sigmoid, cfg, lr, &mut rng)
                            }
                            None => {
                                // Stage 1: draw sentence s + 1 and prefetch
                                // its rows while sentence s trains.
                                std::mem::swap(&mut sc.cur, &mut sc.next);
                                if s + 1 < end {
                                    let ahead = corpus.walk(s + 1);
                                    sc.next.draw(ahead, &table, cfg, &mut stream(s + 1));
                                    sc.next.prefetch(ahead, &syn0, &syn1);
                                }
                                let _guard = lock.as_ref().map(|l| l.lock().expect(POISONED));
                                sc.train(walk, &syn0, &syn1, &sigmoid, cfg, lr)
                            }
                        };
                        chunk_steps += steps;
                        chunk_draws += draws;
                    }
                });
                steps_ctr.add(chunk_steps);
                draws_ctr.add(chunk_draws);
            });
            lo = hi;
        }
        if let Some(t0) = epoch_t0 {
            epoch_hist.record_duration(t0.elapsed());
            tokens_ctr.add(corpus.total_vertices() as u64);
        }
    }

    (EmbeddingMatrix::from_vec(num_nodes, cfg.dim, syn0.to_dense()), batches)
}

const POISONED: &str = "word2vec worker panicked";

/// word2vec's learning rate after `done` of `total` tokens: linear decay
/// from `initial_lr`, floored at `min_lr`.
fn lr_at(cfg: &Word2VecConfig, done: u64, total: usize) -> f32 {
    (cfg.initial_lr * (1.0 - done as f32 / total.max(1) as f32)).max(cfg.min_lr)
}

/// One sentence's window radii and negatives, drawn from the sentence's
/// stream a sentence before its window steps run.
#[derive(Default)]
struct Draws {
    /// The shrunk window radius of each position, as in reference word2vec.
    radii: Vec<usize>,
    /// `negatives` table draws per position (none for a one-vertex
    /// sentence, which has no windows); a draw equal to the center is
    /// skipped when its window runs.
    negatives: Vec<usize>,
}

impl Draws {
    /// Draws `walk`'s windows from `rng` in the order the window steps
    /// consume them: each position's radius, then its negatives.
    fn draw(
        &mut self,
        walk: &[tgraph::NodeId],
        table: &NegativeTable,
        cfg: &Word2VecConfig,
        rng: &mut WalkRng,
    ) {
        self.radii.clear();
        self.negatives.clear();
        for _ in walk {
            self.radii.push(1 + rng.next_bounded(cfg.window));
            if walk.len() > 1 {
                self.negatives.extend((0..cfg.negatives).map(|_| table.sample(rng) as usize));
            }
        }
    }

    /// Prefetches every row `walk`'s window steps will touch: the `syn0`
    /// rows of its tokens and the `syn1` rows of its centers and negatives.
    fn prefetch(&self, walk: &[tgraph::NodeId], syn0: &SharedMatrix, syn1: &SharedMatrix) {
        for &v in walk {
            syn0.prefetch_row(v as usize);
            syn1.prefetch_row(v as usize);
        }
        for &t in &self.negatives {
            syn1.prefetch_row(t);
        }
    }
}

/// Reusable per-thread training scratch, hoisted out of the sentence loop
/// so the hogwild inner loop performs zero heap allocations.
#[derive(Default)]
struct Scratch {
    /// The draws of the sentence training now.
    cur: Draws,
    /// The draws of the next sentence, made while this one trains.
    next: Draws,
    /// The window's context vertices (B ≤ 2·window slots).
    ctx: Vec<usize>,
    /// The window's targets: the center, then the kept negatives
    /// (S ≤ 1 + negatives slots).
    tgt: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

impl Scratch {
    /// One skip-gram pass over a sentence with [`Draws`] `cur`: for every
    /// center position, each in-window context word is pushed toward the
    /// center and away from the center's negatives, shared by its whole
    /// window. Each center is one window-batched step (the pWord2Vec
    /// level-3 form): [`simd::sgns_window`] scores the B context rows of
    /// `syn0` against the S target rows of `syn1` (center first, then the
    /// negatives) and adds `ΔIn = G·Out` and `ΔOut = Gᵀ·In` back to the
    /// rows in place, every read before any write.
    ///
    /// Returns `(gradient_steps, negative_table_draws)` for throughput
    /// accounting: a step is one (context, target) score, `B · S` per
    /// center; a draw is one negative-table lookup.
    fn train(
        &mut self,
        walk: &[tgraph::NodeId],
        syn0: &SharedMatrix,
        syn1: &SharedMatrix,
        sigmoid: &SigmoidTable,
        cfg: &Word2VecConfig,
        lr: f32,
    ) -> (u64, u64) {
        let Self { cur, ctx, tgt, .. } = self;
        if walk.len() < 2 {
            return (0, 0);
        }
        let k = cfg.negatives;
        let mut steps = 0u64;
        for (i, &b) in cur.radii.iter().enumerate() {
            let center = walk[i] as usize;
            let (lo, hi) = (i.saturating_sub(b), (i + b).min(walk.len() - 1));
            ctx.clear();
            ctx.extend(walk[lo..i].iter().chain(&walk[i + 1..=hi]).map(|&v| v as usize));
            tgt.clear();
            tgt.push(center);
            tgt.extend(cur.negatives[i * k..(i + 1) * k].iter().filter(|&&t| t != center));
            let (s0, s1) = (syn0.cells(), syn1.cells());
            simd::sgns_window(syn0.dim(), syn0.stride(), s0, ctx, s1, tgt, sigmoid.lut(), lr);
            steps += (ctx.len() * tgt.len()) as u64;
        }
        (steps, cur.negatives.len() as u64)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use par::ParConfig;

    /// Builds a corpus of two disjoint token "communities" that co-occur
    /// only internally.
    pub(crate) fn two_community_corpus() -> (WalkSet, usize) {
        let mut walks = Vec::new();
        for rep in 0..60u32 {
            let a = rep % 5;
            walks.push(vec![a, (a + 1) % 5, (a + 2) % 5, (a + 3) % 5]);
            walks.push(vec![5 + a, 5 + (a + 1) % 5, 5 + (a + 2) % 5, 5 + (a + 3) % 5]);
        }
        (WalkSet::from_walks(&walks, 4), 10)
    }

    pub(crate) fn mean_intra_inter(emb: &EmbeddingMatrix) -> (f32, f32) {
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for a in 0..10u32 {
            for b in (a + 1)..10 {
                let sim = emb.cosine(a, b);
                if (a < 5) == (b < 5) {
                    intra.push(sim);
                } else {
                    inter.push(sim);
                }
            }
        }
        (
            intra.iter().sum::<f32>() / intra.len() as f32,
            inter.iter().sum::<f32>() / inter.len() as f32,
        )
    }

    #[test]
    fn embeddings_separate_cooccurrence_communities() {
        let (corpus, n) = two_community_corpus();
        let cfg = Word2VecConfig::default().dim(8).epochs(8).seed(1);
        let emb = train(&corpus, n, &cfg, &ParConfig::with_threads(1));
        let (intra, inter) = mean_intra_inter(&emb);
        assert!(intra > inter + 0.2, "intra {intra} not separated from inter {inter}");
    }

    #[test]
    fn hogwild_parallelism_preserves_quality() {
        let (corpus, n) = two_community_corpus();
        let cfg = Word2VecConfig::default().dim(8).epochs(8).seed(2);
        let emb = train(&corpus, n, &cfg, &ParConfig::with_threads(4).chunk_size(4));
        let (intra, inter) = mean_intra_inter(&emb);
        assert!(
            intra > inter + 0.2,
            "parallel training lost quality: intra {intra}, inter {inter}"
        );
    }

    /// Draws one sentence's windows from `rng` and trains it, as the
    /// driver does with the draws it made a sentence ahead.
    #[allow(clippy::too_many_arguments)]
    fn train_sentence(
        walk: &[tgraph::NodeId],
        syn0: &SharedMatrix,
        syn1: &SharedMatrix,
        table: &NegativeTable,
        sigmoid: &SigmoidTable,
        cfg: &Word2VecConfig,
        lr: f32,
        rng: &mut WalkRng,
    ) -> (u64, u64) {
        let mut sc = Scratch::default();
        sc.cur.draw(walk, table, cfg, rng);
        sc.train(walk, syn0, syn1, sigmoid, cfg, lr)
    }

    /// `train` on one thread with the lr clock advanced once per sentence,
    /// in corpus order.
    fn per_sentence_schedule(corpus: &WalkSet, n: usize, cfg: &Word2VecConfig) -> EmbeddingMatrix {
        let syn0 = SharedMatrix::uniform_init(n, cfg.dim, cfg.dim, cfg.seed);
        let syn1 = SharedMatrix::zeros(n, cfg.dim, cfg.dim);
        let table = NegativeTable::from_corpus(corpus, n, NegativeTable::recommended_size(n));
        let sigmoid = SigmoidTable::default();
        let total = corpus.total_vertices() * cfg.epochs;
        let mut done = 0u64;
        for epoch in 0..cfg.epochs {
            for s in 0..corpus.num_walks() {
                let walk = corpus.walk(s);
                let mut rng = WalkRng::from_stream(cfg.seed, epoch as u64, s as u64);
                let lr = lr_at(cfg, done, total);
                train_sentence(walk, &syn0, &syn1, &table, &sigmoid, cfg, lr, &mut rng);
                done += walk.len() as u64;
            }
        }
        EmbeddingMatrix::from_vec(n, cfg.dim, syn0.to_dense())
    }

    #[test]
    fn single_thread_training_is_deterministic() {
        let (corpus, n) = two_community_corpus();
        let cfg = Word2VecConfig::default().epochs(2).seed(5);
        let a = train(&corpus, n, &cfg, &ParConfig::with_threads(1));
        let b = train(&corpus, n, &cfg, &ParConfig::with_threads(1));
        assert_eq!(a, b);
        // The lr clock advances once per chunk, yet on one thread every
        // sentence still sees the per-sentence schedule, for any chunking.
        let expected = per_sentence_schedule(&corpus, n, &cfg);
        assert_eq!(a, expected);
        let chunked = train(&corpus, n, &cfg, &ParConfig::with_threads(1).chunk_size(7));
        assert_eq!(chunked, expected);
    }

    /// What the scalar oracle saw, so the test can prove each corner case
    /// was exercised.
    #[derive(Default)]
    struct Coverage {
        clipped_both_ends: usize,
        repeated_context: usize,
        repeated_negative: usize,
        center_draws_skipped: usize,
    }

    /// Scalar oracle of the window-batched step over one sentence: plain
    /// nested `Vec` tables, the same RNG draw order, and every read of a
    /// window taken before any of its writes.
    #[allow(clippy::too_many_arguments)]
    fn oracle_sentence(
        walk: &[tgraph::NodeId],
        syn0: &mut [Vec<f32>],
        syn1: &mut [Vec<f32>],
        table: &NegativeTable,
        sigmoid: &SigmoidTable,
        cfg: &Word2VecConfig,
        lr: f32,
        rng: &mut WalkRng,
        seen: &mut Coverage,
    ) {
        for i in 0..walk.len() {
            let center = walk[i] as usize;
            let b = 1 + rng.next_bounded(cfg.window);
            let (lo, hi) = (i.saturating_sub(b), (i + b).min(walk.len() - 1));
            let ctx: Vec<usize> = (lo..=hi).filter(|&j| j != i).map(|j| walk[j] as usize).collect();
            if ctx.is_empty() {
                continue;
            }
            seen.clipped_both_ends += usize::from(i < b && i + b > walk.len() - 1);
            seen.repeated_context +=
                usize::from(ctx.iter().any(|v| ctx.iter().filter(|&w| w == v).count() > 1));
            let mut tgt = vec![center];
            for _ in 0..cfg.negatives {
                let t = table.sample(rng) as usize;
                if t == center {
                    seen.center_draws_skipped += 1;
                } else {
                    tgt.push(t);
                }
            }
            seen.repeated_negative += usize::from(
                tgt[1..].iter().any(|v| tgt[1..].iter().filter(|&w| w == v).count() > 1),
            );
            let inp: Vec<Vec<f32>> = ctx.iter().map(|&v| syn0[v].clone()).collect();
            let out: Vec<Vec<f32>> = tgt.iter().map(|&t| syn1[t].clone()).collect();
            for (x, &v) in inp.iter().zip(&ctx) {
                for (k, (y, &t)) in out.iter().zip(&tgt).enumerate() {
                    let label = if k == 0 { 1.0 } else { 0.0 };
                    let f: f32 = x.iter().zip(y).map(|(a, b)| a * b).sum();
                    let g = (label - sigmoid.get(f)) * lr;
                    for d in 0..cfg.dim {
                        syn0[v][d] += g * y[d];
                        syn1[t][d] += g * x[d];
                    }
                }
            }
        }
    }

    #[test]
    fn window_step_matches_scalar_oracle() {
        let n = 5;
        // Negatives come only from {0, 1}: every window draws repeats,
        // and draws equal to a center 0 or 1 are skipped.
        let table = NegativeTable::from_counts(&[4, 4, 0, 0, 0], 64);
        let sigmoid = SigmoidTable::default();
        // Short sentences clip windows at both ends; revisits repeat a
        // context vertex inside one window.
        let sentences: [&[tgraph::NodeId]; 3] = [&[0, 1, 0, 2, 1, 3], &[2, 4, 2], &[4]];
        let mut seen = Coverage::default();
        for dim in [8, 11] {
            let cfg = Word2VecConfig::default().dim(dim);
            let syn0 = SharedMatrix::uniform_init(n, dim, dim, 1);
            let syn1 = SharedMatrix::uniform_init(n, dim, dim, 2);
            let mut o0: Vec<Vec<f32>> = (0..n).map(|r| syn0.row_vec(r)).collect();
            let mut o1: Vec<Vec<f32>> = (0..n).map(|r| syn1.row_vec(r)).collect();
            for seed in 0..6 {
                for walk in sentences {
                    let mut rng = WalkRng::new(seed);
                    let mut oracle_rng = rng.clone();
                    let lr = 0.25;
                    train_sentence(walk, &syn0, &syn1, &table, &sigmoid, &cfg, lr, &mut rng);
                    oracle_sentence(
                        walk,
                        &mut o0,
                        &mut o1,
                        &table,
                        &sigmoid,
                        &cfg,
                        lr,
                        &mut oracle_rng,
                        &mut seen,
                    );
                }
            }
            for r in 0..n {
                for (m, o) in [(&syn0, &o0), (&syn1, &o1)] {
                    for (x, y) in m.row_vec(r).iter().zip(&o[r]) {
                        assert!((x - y).abs() < 1e-5, "dim {dim} row {r}: {x} vs {y}");
                    }
                }
            }
        }
        assert!(seen.clipped_both_ends > 0, "no window clipped at both ends");
        assert!(seen.repeated_context > 0, "no repeated context vertex");
        assert!(seen.repeated_negative > 0, "no repeated negative");
        assert!(seen.center_draws_skipped > 0, "no negative equal to the center");
    }

    #[test]
    fn window_step_counts_scores_and_per_center_draws() {
        let table = NegativeTable::from_counts(&[1, 1, 1, 1], 64);
        let cfg = Word2VecConfig::default();
        let syn0 = SharedMatrix::uniform_init(4, 8, 8, 1);
        let syn1 = SharedMatrix::zeros(4, 8, 8);
        let walk = [0, 1, 2, 3];
        let mut rng = WalkRng::new(9);
        let (steps, draws) = train_sentence(
            &walk,
            &syn0,
            &syn1,
            &table,
            &SigmoidTable::default(),
            &cfg,
            0.025,
            &mut rng,
        );
        // One draw per negative per center, whatever the window holds.
        assert_eq!(draws, (walk.len() * cfg.negatives) as u64);
        assert!(steps > draws, "steps {steps} draws {draws}");
    }

    #[test]
    fn warm_start_preserves_untouched_vectors_direction() {
        let (corpus, n) = two_community_corpus();
        let cfg = Word2VecConfig::default().epochs(4).seed(11);
        let base = train(&corpus, n, &cfg, &ParConfig::with_threads(1));
        // Refresh with a corpus that never mentions nodes 5..10: their
        // vectors must be exactly preserved.
        let sub = WalkSet::from_walks(&[vec![0, 1, 2], vec![2, 3, 4]], 4);
        let refreshed =
            train_from(&sub, n, &base, &cfg.clone().epochs(1), &ParConfig::with_threads(1));
        for v in 5..10u32 {
            assert_eq!(refreshed.get(v), base.get(v), "untouched node {v} moved");
        }
        assert_eq!(refreshed.num_nodes(), n);
    }

    #[test]
    fn warm_start_grows_vocabulary() {
        let (corpus, n) = two_community_corpus();
        let cfg = Word2VecConfig::default().epochs(2).seed(12);
        let base = train(&corpus, n, &cfg, &ParConfig::with_threads(1));
        let grown = WalkSet::from_walks(&[vec![0, 10, 11], vec![11, 10, 0]], 4);
        let refreshed = train_from(&grown, 12, &base, &cfg, &ParConfig::with_threads(1));
        assert_eq!(refreshed.num_nodes(), 12);
        // New nodes have non-zero vectors after training on them.
        assert!(refreshed.get(11).iter().any(|&x| x != 0.0));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn warm_start_rejects_dim_change() {
        let (corpus, n) = two_community_corpus();
        let base =
            train(&corpus, n, &Word2VecConfig::default().epochs(1), &ParConfig::with_threads(1));
        let _ = train_from(
            &corpus,
            n,
            &base,
            &Word2VecConfig::default().dim(16),
            &ParConfig::with_threads(1),
        );
    }

    /// Trains the two-community corpus with `cfg` edited by `edit`.
    fn train_with(edit: impl FnOnce(&mut Word2VecConfig)) -> EmbeddingMatrix {
        let (corpus, n) = two_community_corpus();
        let mut cfg = Word2VecConfig::default();
        edit(&mut cfg);
        train(&corpus, n, &cfg, &ParConfig::with_threads(1))
    }

    #[test]
    #[should_panic(expected = "Word2VecConfig::dim must be positive")]
    fn zero_dim_is_rejected() {
        train_with(|cfg| cfg.dim = 0);
    }

    #[test]
    #[should_panic(expected = "Word2VecConfig::window must be positive")]
    fn zero_window_is_rejected() {
        train_with(|cfg| cfg.window = 0);
    }

    #[test]
    #[should_panic(expected = "Word2VecConfig::epochs must be positive")]
    fn zero_epochs_is_rejected() {
        train_with(|cfg| cfg.epochs = 0);
    }

    #[test]
    fn negative_table_policy_is_shared() {
        assert_eq!(NegativeTable::recommended_size(10), NegativeTable::MIN_TABLE_SIZE);
        assert_eq!(NegativeTable::recommended_size(1_000_000), 8_000_000);
    }
}
