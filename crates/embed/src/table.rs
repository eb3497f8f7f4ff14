//! Negative-sampling and sigmoid lookup tables (word2vec internals).

use tgraph::NodeId;
use twalk::{WalkRng, WalkSet};

/// Unigram^0.75 negative-sampling table, exactly as in the reference
/// word2vec implementation: vertex `v` occupies a share of the table
/// proportional to `count(v)^0.75`, so frequent vertices are sampled more
/// often but sub-linearly.
#[derive(Debug, Clone)]
pub struct NegativeTable {
    table: Vec<NodeId>,
}

impl NegativeTable {
    /// Floor on [`recommended_size`](Self::recommended_size): small enough
    /// to build instantly, large enough that the unigram^0.75 distribution
    /// is well resolved for small vocabularies.
    pub const MIN_TABLE_SIZE: usize = 100_000;

    /// The table-size policy every trainer entry point shares:
    /// `max(MIN_TABLE_SIZE, 8 × num_nodes)`, i.e. at least eight slots per
    /// vertex so even a uniform corpus keeps per-vertex resolution.
    pub fn recommended_size(num_nodes: usize) -> usize {
        Self::MIN_TABLE_SIZE.max(8 * num_nodes)
    }

    /// Builds the table from corpus token counts.
    ///
    /// `table_size` trades accuracy of the distribution for memory; the
    /// reference implementation uses 1e8, which is overkill for vertex
    /// vocabularies — callers typically pass `max(1e5, 8 × vocab)`.
    ///
    /// # Panics
    ///
    /// Panics if the corpus is empty or `table_size == 0`.
    pub fn from_corpus(corpus: &WalkSet, num_nodes: usize, table_size: usize) -> Self {
        assert!(table_size > 0, "table size must be positive");
        let mut counts = vec![0u64; num_nodes];
        for walk in corpus.iter() {
            for &v in walk {
                counts[v as usize] += 1;
            }
        }
        Self::from_counts(&counts, table_size)
    }

    /// Builds the table from explicit per-vertex counts.
    ///
    /// # Panics
    ///
    /// Panics if all counts are zero or `table_size == 0`.
    pub fn from_counts(counts: &[u64], table_size: usize) -> Self {
        assert!(table_size > 0, "table size must be positive");
        let total: f64 = counts.iter().map(|&c| (c as f64).powf(0.75)).sum();
        assert!(total > 0.0, "corpus has no tokens");
        let mut table = Vec::with_capacity(table_size);
        let mut cum = 0.0f64;
        let mut v = 0usize;
        let mut share = (counts[0] as f64).powf(0.75) / total;
        for i in 0..table_size {
            table.push(v as NodeId);
            let frac = (i + 1) as f64 / table_size as f64;
            if frac > cum + share && v + 1 < counts.len() {
                cum += share;
                v += 1;
                share = (counts[v] as f64).powf(0.75) / total;
            }
        }
        Self { table }
    }

    /// Draws one negative sample.
    #[inline]
    pub fn sample(&self, rng: &mut WalkRng) -> NodeId {
        self.table[rng.next_bounded(self.table.len())]
    }

    /// Table length.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty (never true for constructed tables).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// Precomputed sigmoid lookup over `[-max_exp, max_exp]`, the classic
/// word2vec trick replacing `exp` calls in the inner loop.
#[derive(Debug, Clone)]
pub struct SigmoidTable {
    values: Vec<f32>,
    max_exp: f32,
}

impl SigmoidTable {
    /// Builds a table with `resolution` buckets over `[-max_exp, max_exp]`.
    ///
    /// # Panics
    ///
    /// Panics if `resolution < 2` or `max_exp <= 0`.
    pub fn new(resolution: usize, max_exp: f32) -> Self {
        assert!(resolution >= 2, "resolution too small");
        assert!(max_exp > 0.0, "max_exp must be positive");
        let values = (0..resolution)
            .map(|i| {
                let x = (i as f32 / (resolution - 1) as f32 * 2.0 - 1.0) * max_exp;
                1.0 / (1.0 + (-x).exp())
            })
            .collect();
        Self { values, max_exp }
    }

    /// Approximate `sigmoid(x)`, clamped to the table bounds (values beyond
    /// `±max_exp` saturate to 0/1 exactly as word2vec does).
    #[inline]
    pub fn get(&self, x: f32) -> f32 {
        self.lut().get(x)
    }

    /// The table as the `simd` kernels take it; its lookup is [`get`](Self::get).
    #[inline]
    pub fn lut(&self) -> simd::SigmoidLut<'_> {
        simd::SigmoidLut { values: &self.values, max_exp: self.max_exp }
    }
}

impl Default for SigmoidTable {
    /// word2vec defaults: 1000 buckets over `[-6, 6]`.
    fn default() -> Self {
        Self::new(1000, 6.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_table_tracks_true_sigmoid() {
        let t = SigmoidTable::default();
        for i in -60..=60 {
            let x = i as f32 / 10.0;
            let truth = 1.0 / (1.0 + (-x).exp());
            assert!((t.get(x) - truth).abs() < 0.01, "x={x}");
        }
    }

    #[test]
    fn sigmoid_saturates_outside_range() {
        let t = SigmoidTable::default();
        assert_eq!(t.get(100.0), 1.0);
        assert_eq!(t.get(-100.0), 0.0);
    }

    #[test]
    fn negative_table_respects_frequencies() {
        // Vertex 0 appears 8x as often as vertex 1; its share should be
        // roughly 8^0.75 ≈ 4.76 : 1.
        let table = NegativeTable::from_counts(&[800, 100], 100_000);
        let zeros = table.table.iter().filter(|&&v| v == 0).count() as f64;
        let ratio = zeros / (table.len() as f64 - zeros);
        assert!((3.5..6.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn sampling_covers_vocab() {
        let table = NegativeTable::from_counts(&[10, 10, 10, 10], 10_000);
        let mut rng = WalkRng::new(3);
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            seen[table.sample(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "no tokens")]
    fn empty_counts_panic() {
        let _ = NegativeTable::from_counts(&[0, 0], 100);
    }
}
