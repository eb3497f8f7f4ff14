//! The query engine: per-snapshot scoring and retrieval primitives.
//!
//! Every operation loads one snapshot up front and computes entirely
//! against it, so a query never mixes embeddings from two model versions
//! (see DESIGN.md §9). `link_score` batches are one GEMM forward pass;
//! `topk_neighbors` is a brute-force dot-product scan parallelized with
//! chunk-local top-k heaps merged at the end.

use std::sync::Arc;

use nn::Tensor2;
use par::{parallel_reduce_with, ParConfig};
use tgraph::NodeId;

use crate::store::{EmbeddingStore, ModelSnapshot};

/// Why a query could not be answered. These map to structured protocol
/// errors; none of them are fatal to the connection or the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The node id is outside the served embedding table.
    UnknownNode(NodeId),
    /// `topk` with `k = 0` — an empty ranking is a caller bug, rejected
    /// explicitly rather than silently returning nothing.
    ZeroK,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnknownNode(v) => write!(f, "unknown node id {v}"),
            QueryError::ZeroK => write!(f, "k must be at least 1"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Scores edge pairs against one snapshot with a single batched forward
/// pass. Invalid pairs get per-pair errors; valid pairs are still scored,
/// so one bad request never poisons the batch it rode in.
pub fn score_pairs(
    snap: &ModelSnapshot,
    pairs: &[(NodeId, NodeId)],
) -> Vec<Result<f32, QueryError>> {
    let n = snap.emb.num_nodes() as NodeId;
    let d = snap.emb.dim();
    let mut out: Vec<Result<f32, QueryError>> = Vec::with_capacity(pairs.len());
    let mut features: Vec<f32> = Vec::new();
    let mut valid_slots: Vec<usize> = Vec::new();
    for (i, &(u, v)) in pairs.iter().enumerate() {
        if u >= n {
            out.push(Err(QueryError::UnknownNode(u)));
        } else if v >= n {
            out.push(Err(QueryError::UnknownNode(v)));
        } else {
            features.extend_from_slice(snap.emb.get(u));
            features.extend_from_slice(snap.emb.get(v));
            valid_slots.push(i);
            out.push(Ok(0.0)); // overwritten below
        }
    }
    if !valid_slots.is_empty() {
        let x = Tensor2::from_vec(valid_slots.len(), 2 * d, features);
        let probs = snap.model.predict_proba(&x);
        for (slot, p) in valid_slots.into_iter().zip(probs) {
            out[slot] = Ok(p);
        }
    }
    out
}

/// Read-side API over an [`EmbeddingStore`]. Cheap to construct; holds no
/// per-query state.
#[derive(Debug)]
pub struct QueryEngine {
    store: Arc<EmbeddingStore>,
    par: ParConfig,
}

impl QueryEngine {
    /// Binds the engine to a store with the given parallelism for scans.
    pub fn new(store: Arc<EmbeddingStore>, par: ParConfig) -> Self {
        Self { store, par }
    }

    /// The parallelism scans run with.
    pub(crate) fn par(&self) -> &ParConfig {
        &self.par
    }

    /// Link-existence probability for `(u, v)` plus the snapshot version
    /// it was computed against, in one forward pass.
    pub fn link_score(&self, u: NodeId, v: NodeId) -> Result<(f32, u64), QueryError> {
        let snap = self.store.load();
        let score = score_pairs(&snap, &[(u, v)]).pop().expect("one pair in, one result out")?;
        Ok((score, snap.version))
    }

    /// The embedding vector of `u`.
    pub fn embedding(&self, u: NodeId) -> Result<(Vec<f32>, u64), QueryError> {
        let snap = self.store.load();
        if u as usize >= snap.emb.num_nodes() {
            return Err(QueryError::UnknownNode(u));
        }
        Ok((snap.emb.get(u).to_vec(), snap.version))
    }

    /// The `k` highest-dot-product neighbors of `u` (excluding `u`),
    /// best first, via a parallel brute-force scan of the embedding table.
    /// `k` larger than the table is clamped.
    pub fn topk_neighbors(
        &self,
        u: NodeId,
        k: usize,
    ) -> Result<(Vec<(NodeId, f32)>, u64), QueryError> {
        if k == 0 {
            return Err(QueryError::ZeroK);
        }
        let snap = self.store.load();
        let n = snap.emb.num_nodes();
        if u as usize >= n {
            return Err(QueryError::UnknownNode(u));
        }
        let query = snap.emb.get(u).to_vec();
        let emb = &snap.emb;
        // Each worker scores its chunk and keeps only its local top-k;
        // merging two partial top-k lists is O(k log k), so the reduction
        // stays cheap regardless of table size.
        let merged = parallel_reduce_with(
            &self.par,
            n,
            Vec::new(),
            |acc: Vec<(NodeId, f32)>, start, end| {
                let mut local = acc;
                for i in start..end {
                    if i == u as usize {
                        continue;
                    }
                    // SIMD-dispatched dot: the brute-force scan is pure
                    // dot-product throughput.
                    local.push((i as NodeId, simd::dot(&query, emb.get(i as NodeId))));
                }
                sort_topk(&mut local, k);
                local
            },
            move |a, b| merge_topk(a, b, k),
        );
        Ok((merged, snap.version))
    }
}

/// Sorts descending by score (ties broken by id for determinism) and
/// truncates to `k`.
fn sort_topk(list: &mut Vec<(NodeId, f32)>, k: usize) {
    list.sort_by(|x, y| y.1.partial_cmp(&x.1).expect("finite score").then(x.0.cmp(&y.0)));
    list.truncate(k);
}

/// Merges two partial top-k lists into one, keeping `k`.
fn merge_topk(a: Vec<(NodeId, f32)>, b: Vec<(NodeId, f32)>, k: usize) -> Vec<(NodeId, f32)> {
    let mut out = a;
    out.extend(b);
    sort_topk(&mut out, k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use embed::EmbeddingMatrix;
    use nn::{Mlp, OutputHead};

    fn engine(n: usize, d: usize) -> QueryEngine {
        // Deterministic distinct rows: node i's vector is i+1 in the first
        // coordinate, so dot products with any query rank by id.
        let mut data = vec![0.0f32; n * d];
        for (i, row) in data.chunks_mut(d).enumerate() {
            row[0] = (i + 1) as f32;
        }
        let emb = EmbeddingMatrix::from_vec(n, d, data);
        let mlp = Mlp::new(&[2 * d, 4, 1], OutputHead::Binary, 42);
        QueryEngine::new(Arc::new(EmbeddingStore::new(emb, mlp)), ParConfig::with_threads(2))
    }

    #[test]
    fn link_score_is_a_probability_and_matches_batch_path() {
        let e = engine(6, 3);
        let (p, version) = e.link_score(0, 5).unwrap();
        assert!((0.0..=1.0).contains(&p));
        assert_eq!(version, 1);
        let snap = e.store.load();
        let batch = score_pairs(&snap, &[(0, 5)]);
        assert_eq!(batch[0].unwrap(), p);
    }

    #[test]
    fn score_pairs_isolates_bad_pairs() {
        let e = engine(4, 2);
        let snap = e.store.load();
        let out = score_pairs(&snap, &[(0, 1), (0, 99), (2, 3), (99, 0)]);
        assert!(out[0].is_ok());
        assert_eq!(out[1], Err(QueryError::UnknownNode(99)));
        assert!(out[2].is_ok());
        assert_eq!(out[3], Err(QueryError::UnknownNode(99)));
        // The valid scores equal their unbatched values.
        assert_eq!(out[0].unwrap(), e.link_score(0, 1).unwrap().0);
        assert_eq!(out[2].unwrap(), e.link_score(2, 3).unwrap().0);
    }

    #[test]
    fn topk_ranks_by_dot_product_and_excludes_self() {
        let e = engine(8, 2);
        let (top, _) = e.topk_neighbors(3, 3).unwrap();
        // Scores are proportional to id+1, so the best are 7, 6, 5.
        assert_eq!(top.iter().map(|&(v, _)| v).collect::<Vec<_>>(), vec![7, 6, 5]);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(top.iter().all(|&(v, _)| v != 3));
        // k larger than the table clamps to n - 1.
        let (all, _) = e.topk_neighbors(3, 100).unwrap();
        assert_eq!(all.len(), 7);
    }

    #[test]
    fn structured_errors_for_bad_queries() {
        let e = engine(4, 2);
        assert_eq!(e.link_score(0, 4), Err(QueryError::UnknownNode(4)));
        assert_eq!(e.embedding(17).unwrap_err(), QueryError::UnknownNode(17));
        assert_eq!(e.topk_neighbors(0, 0).unwrap_err(), QueryError::ZeroK);
        assert_eq!(e.topk_neighbors(9, 2).unwrap_err(), QueryError::UnknownNode(9));
        assert_eq!(QueryError::ZeroK.to_string(), "k must be at least 1");
    }

    #[test]
    fn embedding_returns_the_stored_row() {
        let e = engine(4, 3);
        let (row, v) = e.embedding(2).unwrap();
        assert_eq!(row, vec![3.0, 0.0, 0.0]);
        assert_eq!(v, 1);
    }
}
