//! New-task extension point (paper §VIII-B).
//!
//! The paper's Fig. 12 shows how a user adds a new downstream task — their
//! example is *link property prediction* (classifying edge labels) — by
//! re-using the random walk and word2vec stages verbatim, writing a
//! task-specific data preparation step, and swapping the classifier head.
//! This module implements exactly that example, following the same recipe
//! a downstream user would.

use std::time::Instant;

use dataprep::SplitRatios;
use nn::{metrics, Mlp, OutputHead, Tensor2, Trainer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tgraph::{TemporalEdge, TemporalGraph};

use crate::{PhaseTimes, Pipeline, PipelineError, TaskKind, TaskMetrics, TaskReport};

/// An edge together with its property label (e.g. an interaction type).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabeledEdge {
    /// The temporal edge.
    pub edge: TemporalEdge,
    /// Property class of the edge.
    pub label: u16,
}

impl Pipeline {
    /// Link property prediction (paper §VIII-B's worked example): classify
    /// the label of each edge from the concatenated endpoint embeddings.
    ///
    /// Re-uses phases 1–2 unchanged; the data preparation step sorts the
    /// labeled edges by time, holds out the temporal tail for testing
    /// (stratification is by time, as for link prediction), and trains a
    /// multi-class FNN over edge features.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::GraphTooSmall`] for degenerate graphs and
    /// [`PipelineError::ClassTooSmall`] when a label has fewer than 3
    /// examples.
    pub fn run_link_property_prediction(
        &self,
        g: &TemporalGraph,
        labeled_edges: &[LabeledEdge],
    ) -> Result<TaskReport, PipelineError> {
        if g.num_edges() < 25 || g.num_nodes() < 10 || labeled_edges.len() < 25 {
            return Err(PipelineError::GraphTooSmall {
                nodes: g.num_nodes(),
                edges: labeled_edges.len(),
            });
        }
        let num_classes = labeled_edges.iter().map(|e| e.label as usize + 1).max().unwrap_or(0);
        for c in 0..num_classes as u16 {
            let members = labeled_edges.iter().filter(|e| e.label == c).count();
            if members < 3 {
                return Err(PipelineError::ClassTooSmall { class: c, members });
            }
        }
        let hp = self.hyperparams();

        // Phases 1-2, re-used verbatim (Fig. 12 lines 11-12).
        let t0 = Instant::now();
        let walks = self.walks(g);
        let rwalk_time = t0.elapsed();
        let walk_stats = twalk::stats::length_stats(&walks);
        let t0 = Instant::now();
        let emb = embed::train(&walks, g.num_nodes(), &hp.w2v_config(), &hp.par_config());
        let w2v_time = t0.elapsed();

        // Task-specific data preparation: temporal tail = test, random
        // train/valid split of the head (same causality rule as Fig. 7).
        let t0 = Instant::now();
        let ratios = SplitRatios::default();
        let mut edges = labeled_edges.to_vec();
        edges.sort_by(|a, b| a.edge.time.partial_cmp(&b.edge.time).expect("finite times"));
        let test_count =
            ((edges.len() as f64 * ratios.test).round() as usize).clamp(1, edges.len() - 2);
        let test = edges.split_off(edges.len() - test_count);
        let mut rng = StdRng::seed_from_u64(hp.seed ^ 0x11F);
        edges.shuffle(&mut rng);
        let train_count = ((labeled_edges.len() as f64 * ratios.train).round() as usize)
            .clamp(1, edges.len() - 1);
        let valid = edges.split_off(train_count);
        let train = edges;

        let pack = |set: &[LabeledEdge]| -> (Tensor2, Vec<usize>) {
            let mut x = Tensor2::zeros(set.len(), 2 * hp.dim);
            let mut y = Vec::with_capacity(set.len());
            for (i, le) in set.iter().enumerate() {
                x.row_mut(i).copy_from_slice(&emb.edge_feature(le.edge.src, le.edge.dst));
                y.push(le.label as usize);
            }
            (x, y)
        };
        let (x_train, y_train) = pack(&train);
        let (x_valid, y_valid) = pack(&valid);
        let (x_test, y_test) = pack(&test);
        let prep_time = t0.elapsed();

        // Classifier: multi-class head over edge features.
        let dims = [2 * hp.dim, hp.hidden, num_classes];
        let mut mlp = Mlp::new(&dims, OutputHead::MultiClass, hp.seed).with_residual(hp.residual);
        let trainer = Trainer::new(hp.train_options());
        let train_report = trainer.fit_multiclass(&mut mlp, &x_train, &y_train, &x_valid, &y_valid);

        let t0 = Instant::now();
        let pred = mlp.predict_class(&x_test);
        let test_time = t0.elapsed();

        Ok(TaskReport {
            task: TaskKind::NodeClassification, // multi-class family
            metrics: TaskMetrics {
                accuracy: metrics::accuracy(&pred, &y_test),
                auc: None,
                macro_f1: Some(metrics::macro_f1(&pred, &y_test, num_classes)),
                final_train_loss: train_report.epochs.last().map_or(f64::NAN, |e| e.train_loss),
            },
            phase_times: PhaseTimes {
                rwalk: rwalk_time,
                word2vec: w2v_time,
                data_prep: prep_time,
                train_total: train_report.total_time,
                train_per_epoch: train_report.mean_epoch_time(),
                test: test_time,
            },
            walk_stats,
            sampler_build: walks.sampler_stats(),
            epochs_run: train_report.epochs.len(),
            backend: "cpu",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hyperparams;

    #[test]
    fn link_property_prediction_learns_community_property() {
        // Edge property: 1 when the edge is intra-community. With SBM
        // structure this is learnable from endpoint embeddings.
        let gen = tgraph::gen::temporal_sbm(250, 2, 6_000, 0.9, 9);
        let labels = gen.labels.clone();
        let g = gen.builder.undirected(true).build();
        let labeled: Vec<LabeledEdge> = g
            .edges()
            .map(|e| LabeledEdge {
                edge: e,
                label: u16::from(labels[e.src as usize] == labels[e.dst as usize]),
            })
            .collect();
        let report = Pipeline::new(Hyperparams::paper_optimal().quick_test())
            .run_link_property_prediction(&g, &labeled)
            .unwrap();
        assert!(report.metrics.accuracy > 0.6, "accuracy {}", report.metrics.accuracy);
    }

    #[test]
    fn sparse_edge_class_is_rejected() {
        let g = tgraph::gen::erdos_renyi(100, 1_000, 1).build();
        let mut labeled: Vec<LabeledEdge> =
            g.edges().map(|e| LabeledEdge { edge: e, label: 0 }).collect();
        labeled[0].label = 1;
        let err = Pipeline::new(Hyperparams::paper_optimal())
            .run_link_property_prediction(&g, &labeled)
            .unwrap_err();
        assert!(matches!(err, PipelineError::ClassTooSmall { class: 1, members: 1 }));
    }

    #[test]
    fn too_few_labeled_edges_rejected() {
        let g = tgraph::gen::erdos_renyi(100, 1_000, 2).build();
        let labeled: Vec<LabeledEdge> =
            g.edges().take(5).map(|e| LabeledEdge { edge: e, label: 0 }).collect();
        let err = Pipeline::new(Hyperparams::paper_optimal())
            .run_link_property_prediction(&g, &labeled)
            .unwrap_err();
        assert!(matches!(err, PipelineError::GraphTooSmall { .. }));
    }
}
