//! The end-to-end pipeline driver.

use std::time::{Duration, Instant};

use dataprep::{link_prediction_data, node_classification_data, temporal_edge_split, SplitRatios};
use embed::EmbeddingMatrix;
use nn::{metrics, Mlp, OutputHead, Trainer};
use perfmodel::profile::{
    profile_testing, profile_training, profile_walk, profile_word2vec, ProfileOptions,
};
use perfmodel::GpuModel;
use tgraph::TemporalGraph;
use twalk::{WalkSet, WalkSetBuilder};

use crate::{Hyperparams, PhaseTimes, PipelineError, TaskKind, TaskMetrics, TaskReport};

/// Execution backend for reported phase times.
///
/// The classifier math always runs on the CPU (accuracy is identical by
/// construction — the paper found batching/staleness does not change
/// accuracy); the backend only selects whether [`PhaseTimes`] holds
/// *measured CPU wall-clock* or the [`GpuModel`]'s estimates for the same
/// workload.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Measure wall-clock time on this machine.
    Cpu,
    /// Report modeled GPU phase times (Table III's GPU columns).
    GpuModel(GpuModel),
}

/// Everything the training half of a deployment hands to the serving
/// half: trained node embeddings, the trained link-prediction FNN, and the
/// run's [`TaskReport`].
#[derive(Debug, Clone)]
pub struct LinkModel {
    /// Trained node embeddings `f : V → R^d`.
    pub emb: EmbeddingMatrix,
    /// Trained 2-layer link-FNN over concatenated edge features (input
    /// width `2d`, binary head).
    pub mlp: Mlp,
    /// Metrics and phase times of the training run.
    pub report: TaskReport,
}

/// Everything phases 1–2 hand to the classifier phases.
struct EmbedPhase {
    emb: EmbeddingMatrix,
    /// The materialized corpus (the GPU model profiles it).
    walks: WalkSet,
    /// Walk-generation wall-clock.
    rwalk_time: Duration,
    /// Training wall-clock.
    w2v_time: Duration,
}

/// The four-phase pipeline of paper Fig. 1.
///
/// # Examples
///
/// ```
/// use rwalk_core::{Hyperparams, Pipeline};
///
/// let gen = tgraph::gen::temporal_sbm(150, 3, 3_000, 0.9, 5);
/// let g = gen.builder.undirected(true).build();
/// let report = Pipeline::new(Hyperparams::paper_optimal().quick_test())
///     .run_node_classification(&g, &gen.labels)
///     .unwrap();
/// assert!(report.metrics.accuracy > 1.0 / 3.0); // beats random guessing
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    hp: Hyperparams,
    backend: Backend,
}

impl Pipeline {
    /// Creates a CPU-backed pipeline.
    pub fn new(hp: Hyperparams) -> Self {
        Self { hp, backend: Backend::Cpu }
    }

    /// Selects the backend.
    #[must_use]
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The hyperparameters this pipeline runs with.
    pub fn hyperparams(&self) -> &Hyperparams {
        &self.hp
    }

    /// Phase 1 only: generate the walk corpus, according to the
    /// configured [`crate::EmbeddingStrategy`] — temporal walks (the
    /// paper's method), static DeepWalk, or snapshot DeepWalk baselines.
    pub fn walks(&self, g: &TemporalGraph) -> WalkSet {
        let par = self.hp.par_config();
        match self.hp.strategy {
            crate::EmbeddingStrategy::TemporalWalks => {
                twalk::generate_walks(g, &self.hp.walk_config(), &par)
            }
            crate::EmbeddingStrategy::StaticDeepWalk => {
                twalk::generate_walks(g, &self.hp.walk_config().respect_time(false), &par)
            }
            crate::EmbeddingStrategy::SnapshotDeepWalk { snapshots } => {
                let snapshots = snapshots.max(1);
                let (lo, hi) = g.time_range().unwrap_or((0.0, 1.0));
                let k = (self.hp.walks_per_node / snapshots).max(1);
                // Append each snapshot's matrix straight into one
                // accumulating walk set: same row stride, so every append
                // is a single copy (no per-walk `Vec` round trip).
                let mut all = WalkSetBuilder::new(self.hp.walk_length);
                for s in 1..=snapshots {
                    let t = lo + (hi - lo) * s as f64 / snapshots as f64;
                    let snap = g.snapshot_until(t);
                    // Each snapshot is its own graph, so `generate_walks`
                    // builds each one its own prepared sampler.
                    let cfg = twalk::WalkConfig { walks_per_node: k, ..self.hp.walk_config() }
                        .seed(self.hp.seed.wrapping_add(s as u64))
                        .respect_time(false);
                    let walks = twalk::generate_walks(&snap, &cfg, &par);
                    all.append_set(&walks);
                }
                all.build()
            }
        }
    }

    /// Phases 1–2: generate walks, then train node embeddings on them.
    pub fn embeddings(&self, g: &TemporalGraph) -> EmbeddingMatrix {
        self.embed_phase(g).emb
    }

    /// Runs phases 1–2 with phase attribution. Both phases run on the
    /// full thread pool, one after the other.
    fn embed_phase(&self, g: &TemporalGraph) -> EmbedPhase {
        let t0 = Instant::now();
        let walks = self.walks(g);
        let rwalk_time = t0.elapsed();
        let t0 = Instant::now();
        let emb = embed::train(&walks, g.num_nodes(), &self.hp.w2v_config(), &self.hp.par_config());
        let w2v_time = t0.elapsed();
        EmbedPhase { emb, walks, rwalk_time, w2v_time }
    }

    /// Runs the full link prediction task (paper §IV-B).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::GraphTooSmall`] when the graph cannot be
    /// split into train/valid/test with negative sampling.
    pub fn run_link_prediction(&self, g: &TemporalGraph) -> Result<TaskReport, PipelineError> {
        self.link_pipeline(g).map(|m| m.report)
    }

    /// Runs the link prediction pipeline and keeps the artifacts a serving
    /// layer needs: the trained embeddings and the trained link-FNN, plus
    /// the usual [`TaskReport`]. This is the training half of an online
    /// deployment — hand the result to `rwserve` to answer queries.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_link_prediction`](Self::run_link_prediction).
    pub fn train_link_model(&self, g: &TemporalGraph) -> Result<LinkModel, PipelineError> {
        self.link_pipeline(g)
    }

    fn link_pipeline(&self, g: &TemporalGraph) -> Result<LinkModel, PipelineError> {
        if g.num_edges() < 25 || g.num_nodes() < 10 {
            return Err(PipelineError::GraphTooSmall {
                nodes: g.num_nodes(),
                edges: g.num_edges(),
            });
        }
        // Phases 1–2: walks and word2vec.
        let ep = self.embed_phase(g);
        let emb = ep.emb;

        // Phase 3: data preparation (Fig. 7).
        let t0 = Instant::now();
        let split = temporal_edge_split(g, SplitRatios::default(), self.hp.seed ^ 0x5E1);
        let data = link_prediction_data(&split, &emb);
        let prep_time = t0.elapsed();

        // Phase 4: 2-layer FNN, BCE loss (paper Eq. 4); extra hidden
        // layers deepen it when configured.
        let mut dims = vec![2 * self.hp.dim];
        dims.extend(std::iter::repeat_n(self.hp.hidden, 1 + self.hp.extra_hidden_layers));
        dims.push(1);
        let mut mlp =
            Mlp::new(&dims, OutputHead::Binary, self.hp.seed).with_residual(self.hp.residual);
        let trainer = Trainer::new(self.hp.train_options());
        let train_report = trainer.fit_binary(
            &mut mlp,
            &data.x_train,
            &data.y_train,
            &data.x_valid,
            &data.y_valid,
        );

        let t0 = Instant::now();
        let scores = mlp.predict_proba(&data.x_test);
        let test_time = t0.elapsed();

        let accuracy = metrics::binary_accuracy(&scores, &data.y_test);
        let auc = metrics::roc_auc(&scores, &data.y_test);
        let final_train_loss = train_report.epochs.last().map_or(f64::NAN, |e| e.train_loss);
        let epochs_run = train_report.epochs.len();

        let mut phase_times = PhaseTimes {
            rwalk: ep.rwalk_time,
            word2vec: ep.w2v_time,
            data_prep: prep_time,
            train_total: train_report.total_time,
            train_per_epoch: train_report.mean_epoch_time(),
            test: test_time,
        };
        record_phase_spans(g, &phase_times);
        let backend = match &self.backend {
            Backend::Cpu => "cpu",
            Backend::GpuModel(gpu) => {
                phase_times = self.gpu_phase_times(
                    gpu,
                    g,
                    &ep.walks,
                    &dims,
                    data.x_train.rows(),
                    data.x_test.rows(),
                    epochs_run,
                );
                "gpu-model"
            }
        };

        let report = TaskReport {
            task: TaskKind::LinkPrediction,
            metrics: TaskMetrics { accuracy, auc: Some(auc), macro_f1: None, final_train_loss },
            phase_times,
            walk_stats: twalk::stats::length_stats(&ep.walks),
            sampler_build: ep.walks.sampler_stats(),
            epochs_run,
            backend,
        };
        Ok(LinkModel { emb, mlp, report })
    }

    /// Runs the full multi-class node classification task (paper §IV-B).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::LabelMismatch`] when `labels` does not
    /// cover every vertex, [`PipelineError::ClassTooSmall`] when a class
    /// cannot be stratified, and [`PipelineError::GraphTooSmall`] for
    /// degenerate graphs.
    pub fn run_node_classification(
        &self,
        g: &TemporalGraph,
        labels: &[u16],
    ) -> Result<TaskReport, PipelineError> {
        if g.num_edges() < 25 || g.num_nodes() < 10 {
            return Err(PipelineError::GraphTooSmall {
                nodes: g.num_nodes(),
                edges: g.num_edges(),
            });
        }
        if labels.len() != g.num_nodes() {
            return Err(PipelineError::LabelMismatch {
                labels: labels.len(),
                nodes: g.num_nodes(),
            });
        }
        let num_classes = labels.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
        for c in 0..num_classes as u16 {
            let members = labels.iter().filter(|&&l| l == c).count();
            if members < 3 {
                return Err(PipelineError::ClassTooSmall { class: c, members });
            }
        }
        let ep = self.embed_phase(g);
        let emb = ep.emb;

        let t0 = Instant::now();
        let data =
            node_classification_data(&emb, labels, SplitRatios::default(), self.hp.seed ^ 0x5E1);
        let prep_time = t0.elapsed();

        // 3-layer FNN, NLL loss over |C| outputs; extra hidden layers
        // deepen it when configured.
        let mut dims = vec![self.hp.dim];
        dims.extend(std::iter::repeat_n(self.hp.hidden, 2 + self.hp.extra_hidden_layers));
        dims.push(data.num_classes);
        let mut mlp =
            Mlp::new(&dims, OutputHead::MultiClass, self.hp.seed).with_residual(self.hp.residual);
        let trainer = Trainer::new(self.hp.train_options());
        let train_report = trainer.fit_multiclass(
            &mut mlp,
            &data.x_train,
            &data.y_train,
            &data.x_valid,
            &data.y_valid,
        );

        let t0 = Instant::now();
        let pred = mlp.predict_class(&data.x_test);
        let test_time = t0.elapsed();

        let accuracy = metrics::accuracy(&pred, &data.y_test);
        let macro_f1 = metrics::macro_f1(&pred, &data.y_test, data.num_classes);
        let final_train_loss = train_report.epochs.last().map_or(f64::NAN, |e| e.train_loss);
        let epochs_run = train_report.epochs.len();

        let mut phase_times = PhaseTimes {
            rwalk: ep.rwalk_time,
            word2vec: ep.w2v_time,
            data_prep: prep_time,
            train_total: train_report.total_time,
            train_per_epoch: train_report.mean_epoch_time(),
            test: test_time,
        };
        record_phase_spans(g, &phase_times);
        let backend = match &self.backend {
            Backend::Cpu => "cpu",
            Backend::GpuModel(gpu) => {
                phase_times = self.gpu_phase_times(
                    gpu,
                    g,
                    &ep.walks,
                    &dims,
                    data.x_train.rows(),
                    data.x_test.rows(),
                    epochs_run,
                );
                "gpu-model"
            }
        };

        Ok(TaskReport {
            task: TaskKind::NodeClassification,
            metrics: TaskMetrics {
                accuracy,
                auc: None,
                macro_f1: Some(macro_f1),
                final_train_loss,
            },
            phase_times,
            walk_stats: twalk::stats::length_stats(&ep.walks),
            sampler_build: ep.walks.sampler_stats(),
            epochs_run,
            backend,
        })
    }

    /// Replaces measured phase times with the GPU model's estimates for
    /// the same workload (instrumented replicas provide op counts, the
    /// analytic model turns them into time).
    #[allow(clippy::too_many_arguments)]
    fn gpu_phase_times(
        &self,
        gpu: &GpuModel,
        g: &TemporalGraph,
        walks: &WalkSet,
        dims: &[usize],
        train_rows: usize,
        test_rows: usize,
        epochs_run: usize,
    ) -> PhaseTimes {
        let opts = ProfileOptions::default();
        let bytes_graph = g.memory_bytes() as f64;

        // RW-P1: one launch, per-vertex parallelism, graph upload.
        let wp = profile_walk(g, &self.hp.walk_config(), &opts);
        let walk_est =
            gpu.estimate_profile(&wp, wp.work_scale(), g.num_nodes() as f64, 1.0, bytes_graph);

        // RW-P2: batched word2vec — one launch per 16k-sentence batch
        // (the paper's optimal batch size), corpus upload.
        let w2p = profile_word2vec(
            walks,
            self.hp.dim,
            self.hp.window,
            self.hp.negatives,
            g.num_nodes(),
            &opts,
        );
        let batches = (walks.num_walks().div_ceil(16_384) * self.hp.w2v_epochs) as f64;
        let w2v_est = gpu.estimate_profile(
            &w2p,
            w2p.work_scale(),
            (16_384 * self.hp.dim) as f64,
            batches,
            (walks.total_vertices() * 4) as f64,
        );

        // RW-P3/P4: one launch per layer per mini-batch; features upload.
        let n_batches = train_rows.div_ceil(self.hp.batch_size).max(1);
        let tp = profile_training(dims, self.hp.batch_size, n_batches, &opts);
        let feat_bytes = (train_rows * dims[0] * 4) as f64;
        let train_epoch_est = gpu.estimate_profile(
            &tp,
            tp.work_scale(),
            (self.hp.batch_size * dims[1]) as f64,
            (n_batches * dims.len()) as f64,
            feat_bytes,
        );

        let sp = profile_testing(dims, test_rows.max(1), 1, &opts);
        let test_est = gpu.estimate_profile(
            &sp,
            sp.work_scale(),
            (test_rows.max(1) * dims[1]) as f64,
            dims.len() as f64,
            (test_rows * dims[0] * 4) as f64,
        );

        let per_epoch = Duration::from_secs_f64(train_epoch_est.total_secs());
        PhaseTimes {
            rwalk: Duration::from_secs_f64(walk_est.total_secs()),
            word2vec: Duration::from_secs_f64(w2v_est.total_secs()),
            data_prep: Duration::ZERO, // prep runs host-side in both backends
            train_total: per_epoch * epochs_run.max(1) as u32,
            train_per_epoch: per_epoch,
            test: Duration::from_secs_f64(test_est.total_secs()),
        }
    }
}

/// Records the measured wall-clock phase breakdown (paper Fig. 7) into the
/// global metrics registry. Always records the CPU-measured times, even when
/// the report is later rewritten by the GPU model: the registry reflects what
/// this process actually spent.
fn record_phase_spans(g: &TemporalGraph, times: &PhaseTimes) {
    let rec = obs::Recorder::global();
    if !rec.is_enabled() {
        return;
    }
    rec.gauge("tgraph_nodes").set(g.num_nodes() as i64);
    rec.gauge("tgraph_edges").set(g.num_edges() as i64);
    for (phase, d) in [
        ("rw_p1_walk", times.rwalk),
        ("rw_p2_word2vec", times.word2vec),
        ("data_prep", times.data_prep),
        ("rw_p3_train", times.train_total),
        ("rw_p4_test", times.test),
    ] {
        rec.record_duration(&format!("pipeline_phase_ns{{phase=\"{phase}\"}}"), d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp_graph() -> TemporalGraph {
        tgraph::gen::preferential_attachment(500, 3, 2).undirected(true).build()
    }

    #[test]
    fn link_prediction_beats_random() {
        let report = Pipeline::new(Hyperparams::paper_optimal().quick_test())
            .run_link_prediction(&lp_graph())
            .unwrap();
        assert!(report.metrics.accuracy > 0.55, "accuracy {}", report.metrics.accuracy);
        assert!(report.metrics.auc.unwrap() > 0.55, "auc {:?}", report.metrics.auc);
        assert_eq!(report.backend, "cpu");
        assert!(report.phase_times.total() > Duration::ZERO);
    }

    #[test]
    fn node_classification_learns_planted_communities() {
        let gen = tgraph::gen::temporal_sbm(300, 3, 9_000, 0.92, 3);
        let g = gen.builder.undirected(true).build();
        let report = Pipeline::new(Hyperparams::paper_optimal().quick_test())
            .run_node_classification(&g, &gen.labels)
            .unwrap();
        assert!(report.metrics.accuracy > 0.6, "accuracy {}", report.metrics.accuracy);
        assert!(report.metrics.macro_f1.unwrap() > 0.5);
    }

    #[test]
    fn train_link_model_exposes_serving_artifacts() {
        let g = lp_graph();
        let hp = Hyperparams::paper_optimal().quick_test();
        let model = Pipeline::new(hp.clone()).train_link_model(&g).unwrap();
        assert_eq!(model.emb.num_nodes(), g.num_nodes());
        assert_eq!(model.emb.dim(), hp.dim);
        assert_eq!(model.mlp.input_dim(), 2 * hp.dim);
        assert_eq!(model.mlp.output_dim(), 1);
        assert_eq!(model.report.task, TaskKind::LinkPrediction);
        // The kept artifacts are the ones the report was computed from:
        // scoring a known-positive test edge must work end-to-end.
        let feat = model.emb.edge_feature(0, 1);
        let x = nn::Tensor2::from_rows(&[&feat]);
        let p = model.mlp.predict_proba(&x);
        assert!(p[0].is_finite() && (0.0..=1.0).contains(&p[0]));
    }

    #[test]
    fn gpu_backend_reports_modeled_times() {
        let g = lp_graph();
        let report = Pipeline::new(Hyperparams::paper_optimal().quick_test())
            .with_backend(Backend::GpuModel(GpuModel::ampere()))
            .run_link_prediction(&g)
            .unwrap();
        assert_eq!(report.backend, "gpu-model");
        assert!(report.phase_times.rwalk > Duration::ZERO);
        assert!(report.phase_times.word2vec > Duration::ZERO);
    }

    #[test]
    fn tiny_graph_is_rejected() {
        let g = tgraph::GraphBuilder::new().add_edge(tgraph::TemporalEdge::new(0, 1, 0.5)).build();
        let err = Pipeline::new(Hyperparams::paper_optimal()).run_link_prediction(&g).unwrap_err();
        assert!(matches!(err, PipelineError::GraphTooSmall { .. }));
    }

    #[test]
    fn label_mismatch_is_rejected() {
        let g = lp_graph();
        let err = Pipeline::new(Hyperparams::paper_optimal())
            .run_node_classification(&g, &[0, 1, 2])
            .unwrap_err();
        assert!(matches!(err, PipelineError::LabelMismatch { .. }));
    }

    #[test]
    fn sparse_class_is_rejected() {
        let g = lp_graph();
        let mut labels = vec![0u16; g.num_nodes()];
        labels[0] = 1; // class 1 has a single member
        let err = Pipeline::new(Hyperparams::paper_optimal())
            .run_node_classification(&g, &labels)
            .unwrap_err();
        assert!(matches!(err, PipelineError::ClassTooSmall { class: 1, members: 1 }));
    }

    #[test]
    fn snapshot_walks_pin_per_snapshot_content() {
        // The builder-based assembly must produce exactly the walks the
        // per-snapshot generations produce, concatenated in snapshot
        // order.
        let g = lp_graph();
        let hp = Hyperparams::paper_optimal()
            .with_strategy(crate::EmbeddingStrategy::SnapshotDeepWalk { snapshots: 3 });
        let got = Pipeline::new(hp.clone()).walks(&g);
        let par = hp.par_config();
        let (lo, hi) = g.time_range().unwrap();
        let k = (hp.walks_per_node / 3).max(1);
        let mut expected: Vec<Vec<tgraph::NodeId>> = Vec::new();
        for s in 1..=3usize {
            let t = lo + (hi - lo) * s as f64 / 3.0;
            let cfg = twalk::WalkConfig { walks_per_node: k, ..hp.walk_config() }
                .seed(hp.seed.wrapping_add(s as u64))
                .respect_time(false);
            let walks = twalk::generate_walks(&g.snapshot_until(t), &cfg, &par);
            expected.extend(walks.iter().map(<[tgraph::NodeId]>::to_vec));
        }
        assert_eq!(got, twalk::WalkSet::from_walks(&expected, hp.walk_length));
    }

    #[test]
    fn summary_mentions_phases() {
        let report = Pipeline::new(Hyperparams::paper_optimal().quick_test())
            .run_link_prediction(&lp_graph())
            .unwrap();
        let s = report.summary();
        assert!(s.contains("rwalk"));
        assert!(s.contains("word2vec"));
        assert!(s.contains("accuracy"));
    }
}
