//! Graph artifact: packing a [`TemporalGraph`] (plus optionally its
//! [`PreparedSampler`] tables) into a container and opening it back
//! zero-copy.
//!
//! Sections (`kind = Graph`):
//!
//! | name   | elem | contents                                          |
//! |--------|------|---------------------------------------------------|
//! | `meta` | u64  | `[num_nodes, num_edges]`                          |
//! | `goff` | u64  | CSR offsets, `n + 1` entries                      |
//! | `gdst` | u32  | CSR destination node ids, `m` entries             |
//! | `gtim` | f64  | CSR edge timestamps (IEEE-754 bits), `m` entries  |
//! | `smet` | u64  | sampler meta (present iff a sampler was packed)   |
//! | `scdf` | f64  | CDF cumulative weights, `m` entries (weighted)    |
//!
//! `smet` words: `[bias_tag, span_bits]`, with `bias_tag` 0 = uniform,
//! 1 = linear-time, 2 = softmax, 3 = softmax-recency, and `span_bits`
//! the `f64` bit pattern of the graph-wide span (0 for closed forms).
//! The CDF's rows are the CSR's: `goff[v]..goff[v + 1]` is vertex `v`'s
//! slice of `scdf`, so opening indexes the weights by a second zero-copy
//! view of `goff`.
//!
//! Opening reconstructs the graph through [`TemporalGraph::from_csr_parts`]
//! and the sampler through [`PreparedSampler::from_weighted_tables`], so
//! every structural invariant the walk hot path assumes is re-checked —
//! a store file is untrusted input even after its checksums pass.

use std::io::{Seek, Write};
use std::path::Path;

use tgraph::TemporalGraph;
use twalk::{PreparedSampler, SamplerTables, TransitionSampler, WeightedTables};

use crate::format::ArtifactKind;
use crate::reader::Container;
use crate::writer::StoreWriter;
use crate::StoreError;

const BIAS_UNIFORM: u64 = 0;
const BIAS_LINEAR: u64 = 1;
const BIAS_SOFTMAX: u64 = 2;
const BIAS_RECENCY: u64 = 3;

/// Packs `g` (and optionally its prepared sampler) into `out`.
///
/// Sections are streamed straight from the graph's own arrays through a
/// fixed-size encode chunk — peak memory is the graph itself plus a few
/// KiB, never a serialized second copy.
///
/// Returns the total file length. Fails with [`StoreError::Invalid`] if
/// the sampler is a custom bias (no on-disk form) or was prepared for a
/// different graph shape.
pub fn pack_graph<W: Write + Seek>(
    out: W,
    g: &TemporalGraph,
    sampler: Option<&PreparedSampler>,
) -> Result<u64, StoreError> {
    let mut w = StoreWriter::new(out, ArtifactKind::Graph)?;
    let (offsets, dsts, times) = g.csr_parts();

    w.begin_section("meta", 8)?;
    w.write_u64s(&[g.num_nodes() as u64, g.num_edges() as u64])?;
    w.end_section()?;

    w.begin_section("goff", 8)?;
    w.write_usizes(offsets)?;
    w.end_section()?;

    w.begin_section("gdst", 4)?;
    w.write_u32s(dsts)?;
    w.end_section()?;

    w.begin_section("gtim", 8)?;
    w.write_f64s(times)?;
    w.end_section()?;

    if let Some(s) = sampler {
        if s.num_nodes() != g.num_nodes() || s.num_edges() != g.num_edges() {
            return Err(StoreError::Invalid {
                what: "sampler".into(),
                message: format!(
                    "prepared for {}x{} but the graph is {}x{}",
                    s.num_nodes(),
                    s.num_edges(),
                    g.num_nodes(),
                    g.num_edges()
                ),
            });
        }
        let tables = s.export_tables().ok_or_else(|| StoreError::Invalid {
            what: "sampler".into(),
            message: "custom bias functions have no on-disk representation".into(),
        })?;
        let (bias_tag, span, cdf) = match tables {
            SamplerTables::Uniform => (BIAS_UNIFORM, 0.0, None),
            SamplerTables::LinearTime => (BIAS_LINEAR, 0.0, None),
            SamplerTables::Weighted { recency, span, cdf } => {
                (if recency { BIAS_RECENCY } else { BIAS_SOFTMAX }, span, Some(cdf))
            }
        };
        w.begin_section("smet", 8)?;
        w.write_u64s(&[bias_tag, span.to_bits()])?;
        w.end_section()?;
        if let Some(cdf) = cdf {
            w.begin_section("scdf", 8)?;
            w.write_f64s(cdf)?;
            w.end_section()?;
        }
    }

    w.finish()
}

/// Packs to a file path (buffered), creating or truncating it.
pub fn pack_graph_to_path(
    path: &Path,
    g: &TemporalGraph,
    sampler: Option<&PreparedSampler>,
) -> Result<u64, StoreError> {
    let file = std::fs::File::create(path)?;
    pack_graph(std::io::BufWriter::new(file), g, sampler)
}

/// A graph opened from a store file: the CSR arrays (and weighted
/// sampler tables, when packed) borrow the mapping zero-copy.
#[derive(Debug)]
pub struct OpenedGraph {
    /// The reconstructed, fully validated graph.
    pub graph: TemporalGraph,
    /// The packed sampler, if the file has one.
    pub sampler: Option<PreparedSampler>,
    /// Whether the backing bytes are a live memory mapping.
    pub mapped: bool,
    /// Total store file length in bytes.
    pub file_len: u64,
}

/// Opens a packed graph from disk (mmap fast path).
pub fn open_graph(path: &Path) -> Result<OpenedGraph, StoreError> {
    let span = obs::Recorder::global().span("store_load_ns{kind=\"graph\"}");
    let out = open_graph_container(Container::open(path)?);
    drop(span);
    out
}

/// Opens a packed graph from an in-memory image (tests, miri).
pub fn open_graph_bytes(bytes: &[u8]) -> Result<OpenedGraph, StoreError> {
    open_graph_container(Container::from_bytes(bytes)?)
}

fn open_graph_container(c: Container) -> Result<OpenedGraph, StoreError> {
    c.expect_kind(ArtifactKind::Graph)?;
    crate::record_section_metrics(&c);

    let meta = c.u64s("meta")?;
    if meta.len() != 2 {
        return Err(StoreError::Invalid {
            what: "graph meta".into(),
            message: format!("expected 2 words, found {}", meta.len()),
        });
    }
    let (n, m) = (meta[0] as usize, meta[1] as usize);

    let offsets = c.usizes("goff")?;
    let dsts = c.u32s("gdst")?;
    let times = c.f64s("gtim")?;
    if offsets.len() != n + 1 || dsts.len() != m || times.len() != m {
        return Err(StoreError::Invalid {
            what: "graph sections".into(),
            message: format!(
                "meta says {n} nodes / {m} edges but sections hold {} offsets, {} dsts, {} times",
                offsets.len(),
                dsts.len(),
                times.len()
            ),
        });
    }
    let graph = TemporalGraph::from_csr_parts(offsets, dsts, times)
        .map_err(|e| StoreError::Invalid { what: "graph CSR".into(), message: e.to_string() })?;

    let sampler = if c.has_section("smet") { Some(open_sampler(&c, &graph)?) } else { None };

    Ok(OpenedGraph { graph, sampler, mapped: c.is_mapped(), file_len: c.file_len() })
}

fn open_sampler(c: &Container, g: &TemporalGraph) -> Result<PreparedSampler, StoreError> {
    let invalid =
        |message: String| StoreError::Invalid { what: "sampler sections".into(), message };
    let meta = c.u64s("smet")?;
    if meta.len() != 2 {
        return Err(invalid(format!("sampler meta has {} words, expected 2", meta.len())));
    }
    let (n, m) = (g.num_nodes(), g.num_edges());
    match meta[0] {
        BIAS_UNIFORM => {
            PreparedSampler::from_closed_form(TransitionSampler::Uniform, n, m).map_err(invalid)
        }
        BIAS_LINEAR => {
            PreparedSampler::from_closed_form(TransitionSampler::LinearTime, n, m).map_err(invalid)
        }
        tag @ (BIAS_SOFTMAX | BIAS_RECENCY) => {
            // `goff` was validated as the graph's CSR offsets above; the
            // CDF rows are those offsets, lent by a second mapped view.
            let tables = WeightedTables {
                recency: tag == BIAS_RECENCY,
                span: f64::from_bits(meta[1]),
                rows: c.usizes("goff")?,
                cdf: c.f64s("scdf")?,
            };
            PreparedSampler::from_weighted_tables(tables, g).map_err(invalid)
        }
        other => Err(invalid(format!("unknown bias tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn small_graph() -> TemporalGraph {
        tgraph::gen::erdos_renyi(60, 400, 11).build()
    }

    fn pack_bytes(g: &TemporalGraph, s: Option<&PreparedSampler>) -> Vec<u8> {
        let mut cur = Cursor::new(Vec::new());
        pack_graph(&mut cur, g, s).expect("pack");
        cur.into_inner()
    }

    #[test]
    fn graph_round_trips_bit_exactly() {
        let g = small_graph();
        let opened = open_graph_bytes(&pack_bytes(&g, None)).expect("open");
        assert!(opened.sampler.is_none());
        let (o1, d1, t1) = g.csr_parts();
        let (o2, d2, t2) = opened.graph.csr_parts();
        assert_eq!(o1, o2);
        assert_eq!(d1, d2);
        // Timestamps must round-trip as bits, not as values.
        let b1: Vec<u64> = t1.iter().map(|t| t.to_bits()).collect();
        let b2: Vec<u64> = t2.iter().map(|t| t.to_bits()).collect();
        assert_eq!(b1, b2);
    }

    #[test]
    fn closed_form_samplers_round_trip() {
        let g = small_graph();
        for bias in [TransitionSampler::Uniform, TransitionSampler::LinearTime] {
            let prepared = bias.prepare(&g);
            let opened = open_graph_bytes(&pack_bytes(&g, Some(&prepared))).expect("open");
            let s = opened.sampler.expect("sampler present");
            assert_eq!(s.num_nodes(), g.num_nodes());
            assert_eq!(s.num_edges(), g.num_edges());
        }
    }

    #[test]
    fn weighted_sampler_round_trips_with_stats() {
        let g = small_graph();
        let prepared = TransitionSampler::Softmax.prepare(&g);
        let opened = open_graph_bytes(&pack_bytes(&g, Some(&prepared))).expect("open");
        let s = opened.sampler.expect("sampler present");
        assert_eq!(s.stats().table_bytes, prepared.stats().table_bytes);
    }

    #[test]
    fn shape_mismatch_is_rejected_at_pack_time() {
        let g = small_graph();
        let other = tgraph::gen::erdos_renyi(10, 30, 3).build();
        let prepared = TransitionSampler::Softmax.prepare(&other);
        let mut cur = Cursor::new(Vec::new());
        let err = pack_graph(&mut cur, &g, Some(&prepared)).unwrap_err();
        assert!(matches!(err, StoreError::Invalid { .. }));
    }
}
