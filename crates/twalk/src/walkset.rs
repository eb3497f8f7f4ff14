//! Flat storage for generated walks (Algorithm 1's output matrix `W`).

use tgraph::NodeId;

use crate::sampler::SamplerBuildStats;

/// A set of temporal walks in the paper's `|V| × K × N` matrix layout:
/// a flat vertex buffer with stride `max_length` plus per-walk lengths.
///
/// Walk `i` occupies `nodes[i * max_length .. i * max_length + lengths[i]]`;
/// unused tail slots are left as a sentinel and never exposed.
///
/// Sets produced by the bulk kernel also carry the sampler's
/// [`SamplerBuildStats`]; equality compares walk content only, so two runs
/// with different build timings still compare equal.
#[derive(Debug, Clone)]
pub struct WalkSet {
    nodes: Vec<NodeId>,
    lengths: Vec<u32>,
    max_length: usize,
    sampler_stats: Option<SamplerBuildStats>,
}

impl PartialEq for WalkSet {
    fn eq(&self, other: &Self) -> bool {
        // Build stats are timing metadata, not walk content.
        self.nodes == other.nodes
            && self.lengths == other.lengths
            && self.max_length == other.max_length
    }
}

impl Eq for WalkSet {}

impl WalkSet {
    pub(crate) fn from_parts(nodes: Vec<NodeId>, lengths: Vec<u32>, max_length: usize) -> Self {
        debug_assert_eq!(nodes.len(), lengths.len() * max_length);
        Self { nodes, lengths, max_length, sampler_stats: None }
    }

    /// Attaches the generating sampler's build stats.
    #[must_use]
    pub(crate) fn with_sampler_stats(mut self, stats: SamplerBuildStats) -> Self {
        self.sampler_stats = Some(stats);
        self
    }

    /// Build cost of the sampler that generated this set, when it came
    /// from the bulk kernel (`None` for hand-assembled sets).
    pub fn sampler_stats(&self) -> Option<SamplerBuildStats> {
        self.sampler_stats
    }

    /// Number of walks stored (equals `K × |V|` for a full run).
    pub fn num_walks(&self) -> usize {
        self.lengths.len()
    }

    /// Configured maximum walk length `N`.
    pub fn max_length(&self) -> usize {
        self.max_length
    }

    /// The `i`-th walk as a vertex slice (length ≥ 1 for generated sets).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_walks()`.
    pub fn walk(&self, i: usize) -> &[NodeId] {
        let start = i * self.max_length;
        &self.nodes[start..start + self.lengths[i] as usize]
    }

    /// Iterator over all walks as vertex slices.
    ///
    /// The returned [`WalkIter`] is an [`ExactSizeIterator`] (and
    /// double-ended), and `&WalkSet` implements [`IntoIterator`], so
    /// corpus consumers can write `for walk in &walks` instead of indexing
    /// with [`Self::walk`].
    ///
    /// # Examples
    ///
    /// ```
    /// use twalk::{generate_walks, WalkConfig};
    /// use par::ParConfig;
    ///
    /// let g = tgraph::gen::erdos_renyi(50, 400, 3).build();
    /// let walks = generate_walks(&g, &WalkConfig::new(2, 4), &ParConfig::with_threads(1));
    /// assert_eq!(walks.iter().len(), walks.num_walks());
    /// let total: usize = (&walks).into_iter().map(|w| w.len()).sum();
    /// assert_eq!(total, walks.total_vertices());
    /// ```
    pub fn iter(&self) -> WalkIter<'_> {
        WalkIter { set: self, front: 0, back: self.num_walks() }
    }

    /// Total number of vertex occurrences across all walks (the word2vec
    /// corpus size in tokens).
    pub fn total_vertices(&self) -> usize {
        self.lengths.iter().map(|&l| l as usize).sum()
    }

    /// Histogram of walk lengths: index `l` holds the number of walks with
    /// exactly `l` vertices (index 0 is always zero for generated sets).
    /// This is the paper's Fig. 4 data.
    pub fn length_histogram(&self) -> Vec<u64> {
        let mut hist = vec![0u64; self.max_length + 1];
        for &l in &self.lengths {
            hist[l as usize] += 1;
        }
        hist
    }

    /// Mean walk length in vertices.
    pub fn mean_length(&self) -> f64 {
        if self.lengths.is_empty() {
            return 0.0;
        }
        self.total_vertices() as f64 / self.num_walks() as f64
    }

    /// Builds a walk set from explicit walks (for tests and for feeding
    /// word2vec with external corpora).
    ///
    /// # Panics
    ///
    /// Panics if any walk is empty or longer than `max_length`.
    pub fn from_walks(walks: &[Vec<NodeId>], max_length: usize) -> Self {
        let mut nodes = vec![0 as NodeId; walks.len() * max_length];
        let mut lengths = Vec::with_capacity(walks.len());
        for (i, w) in walks.iter().enumerate() {
            assert!(!w.is_empty(), "walk {i} is empty");
            assert!(w.len() <= max_length, "walk {i} exceeds max_length");
            nodes[i * max_length..i * max_length + w.len()].copy_from_slice(w);
            lengths.push(w.len() as u32);
        }
        Self { nodes, lengths, max_length, sampler_stats: None }
    }
}

/// Incremental [`WalkSet`] assembly without intermediate copies.
///
/// `WalkSet::from_walks` needs every walk as its own `Vec`, which forces
/// callers that *generate* sets (snapshot pipelines stitching per-snapshot
/// runs together) to copy each walk twice. The builder appends straight
/// into the final flat buffers: walks via [`push_walk`], whole sets via
/// [`append_set`] — a single `memcpy` when strides match.
///
/// [`push_walk`]: WalkSetBuilder::push_walk
/// [`append_set`]: WalkSetBuilder::append_set
///
/// # Examples
///
/// ```
/// use twalk::WalkSetBuilder;
///
/// let mut b = WalkSetBuilder::new(3);
/// b.push_walk(&[1, 2]);
/// b.push_walk(&[4, 5, 6]);
/// let set = b.build();
/// assert_eq!(set.num_walks(), 2);
/// assert_eq!(set.walk(1), &[4, 5, 6]);
/// ```
#[derive(Debug, Clone)]
pub struct WalkSetBuilder {
    nodes: Vec<NodeId>,
    lengths: Vec<u32>,
    max_length: usize,
}

impl WalkSetBuilder {
    /// Creates a builder for walks of at most `max_length` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `max_length == 0`.
    pub fn new(max_length: usize) -> Self {
        assert!(max_length >= 1, "walks must hold at least the start vertex");
        Self { nodes: Vec::new(), lengths: Vec::new(), max_length }
    }

    /// Pre-sizes the buffers for `num_walks` walks.
    pub fn with_capacity(max_length: usize, num_walks: usize) -> Self {
        let mut b = Self::new(max_length);
        b.nodes.reserve(num_walks * max_length);
        b.lengths.reserve(num_walks);
        b
    }

    /// Number of walks appended so far.
    pub fn num_walks(&self) -> usize {
        self.lengths.len()
    }

    /// Appends one walk.
    ///
    /// # Panics
    ///
    /// Panics if the walk is empty or longer than `max_length`.
    pub fn push_walk(&mut self, walk: &[NodeId]) {
        assert!(!walk.is_empty(), "walk {} is empty", self.lengths.len());
        assert!(walk.len() <= self.max_length, "walk {} exceeds max_length", self.lengths.len());
        self.nodes.extend_from_slice(walk);
        self.nodes.resize(self.lengths.len() * self.max_length + self.max_length, 0);
        self.lengths.push(walk.len() as u32);
    }

    /// Appends every walk of `set`, in order. When strides match this is
    /// one buffer copy; otherwise walks are re-strided individually.
    ///
    /// # Panics
    ///
    /// Panics if `set` contains a walk longer than this builder's
    /// `max_length`.
    pub fn append_set(&mut self, set: &WalkSet) {
        if set.max_length == self.max_length {
            self.nodes.extend_from_slice(&set.nodes);
            self.lengths.extend_from_slice(&set.lengths);
        } else {
            for walk in set.iter() {
                self.push_walk(walk);
            }
        }
    }

    /// Finishes the set.
    pub fn build(self) -> WalkSet {
        WalkSet::from_parts(self.nodes, self.lengths, self.max_length)
    }
}

/// Iterator over a [`WalkSet`]'s walks as vertex slices, in storage order.
///
/// Created by [`WalkSet::iter`] or iterating `&WalkSet`. Reports an exact
/// length and supports iteration from both ends.
#[derive(Debug, Clone)]
pub struct WalkIter<'a> {
    set: &'a WalkSet,
    front: usize,
    back: usize,
}

impl<'a> Iterator for WalkIter<'a> {
    type Item = &'a [NodeId];

    fn next(&mut self) -> Option<Self::Item> {
        if self.front < self.back {
            let w = self.set.walk(self.front);
            self.front += 1;
            Some(w)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.back - self.front;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for WalkIter<'_> {}

impl DoubleEndedIterator for WalkIter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        if self.front < self.back {
            self.back -= 1;
            Some(self.set.walk(self.back))
        } else {
            None
        }
    }
}

impl<'a> IntoIterator for &'a WalkSet {
    type Item = &'a [NodeId];
    type IntoIter = WalkIter<'a>;

    fn into_iter(self) -> WalkIter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_iter_is_exact_and_double_ended() {
        let set = WalkSet::from_walks(&[vec![1, 2], vec![3], vec![4, 5, 6]], 3);
        let mut it = set.iter();
        assert_eq!(it.len(), 3);
        assert_eq!(it.next(), Some(&[1u32, 2][..]));
        assert_eq!(it.next_back(), Some(&[4u32, 5, 6][..]));
        assert_eq!(it.len(), 1);
        assert_eq!(it.next(), Some(&[3u32][..]));
        assert_eq!(it.next(), None);
        assert_eq!(it.next_back(), None);
        // `for w in &set` works and visits walks in storage order.
        let lens: Vec<usize> = (&set).into_iter().map(<[u32]>::len).collect();
        assert_eq!(lens, vec![2, 1, 3]);
    }

    #[test]
    fn from_walks_round_trip() {
        let walks = vec![vec![1, 2, 3], vec![4], vec![5, 6]];
        let set = WalkSet::from_walks(&walks, 4);
        assert_eq!(set.num_walks(), 3);
        assert_eq!(set.walk(0), &[1, 2, 3]);
        assert_eq!(set.walk(1), &[4]);
        assert_eq!(set.walk(2), &[5, 6]);
        assert_eq!(set.total_vertices(), 6);
        assert!((set.mean_length() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_counts_lengths() {
        let set = WalkSet::from_walks(&[vec![1], vec![2, 3], vec![4, 5], vec![6, 7, 8]], 3);
        assert_eq!(set.length_histogram(), vec![0, 1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "exceeds max_length")]
    fn overlong_walk_rejected() {
        let _ = WalkSet::from_walks(&[vec![1, 2, 3]], 2);
    }

    #[test]
    #[should_panic(expected = "is empty")]
    fn empty_walk_rejected() {
        let _ = WalkSet::from_walks(&[vec![]], 2);
    }

    #[test]
    fn builder_matches_from_walks() {
        let walks = vec![vec![1, 2, 3], vec![4], vec![5, 6]];
        let mut b = WalkSetBuilder::with_capacity(4, walks.len());
        for w in &walks {
            b.push_walk(w);
        }
        assert_eq!(b.num_walks(), 3);
        assert_eq!(b.build(), WalkSet::from_walks(&walks, 4));
    }

    #[test]
    fn builder_append_set_fast_path_and_restride() {
        let a = WalkSet::from_walks(&[vec![1, 2], vec![3]], 2);
        let b = WalkSet::from_walks(&[vec![4, 5, 6]], 3);
        // Same stride: one memcpy; different stride: per-walk re-stride.
        let mut builder = WalkSetBuilder::new(3);
        builder.append_set(&a);
        builder.append_set(&b);
        let set = builder.build();
        assert_eq!(set, WalkSet::from_walks(&[vec![1, 2], vec![3], vec![4, 5, 6]], 3));
    }

    #[test]
    #[should_panic(expected = "exceeds max_length")]
    fn builder_rejects_overlong_walk() {
        WalkSetBuilder::new(2).push_walk(&[1, 2, 3]);
    }

    #[test]
    fn equality_ignores_sampler_stats() {
        let a = WalkSet::from_walks(&[vec![1, 2]], 2);
        let b = a.clone().with_sampler_stats(SamplerBuildStats {
            build_time: std::time::Duration::from_millis(5),
            table_bytes: 64,
        });
        assert_eq!(a, b);
        assert!(a.sampler_stats().is_none());
        assert!(b.sampler_stats().is_some());
    }
}
