//! Integration tests spanning every crate: the full pipeline on both
//! tasks, both backends, and the extension features.

use rwalk_repro::prelude::*;

fn lp_graph() -> TemporalGraph {
    tgraph::gen::preferential_attachment(600, 3, 11).undirected(true).normalize_times(true).build()
}

#[test]
fn link_prediction_end_to_end_beats_chance() {
    let report = Pipeline::new(Hyperparams::paper_optimal().quick_test())
        .run_link_prediction(&lp_graph())
        .unwrap();
    assert!(report.metrics.accuracy > 0.6, "accuracy {}", report.metrics.accuracy);
    assert!(report.metrics.auc.unwrap() > 0.6);
    assert!(report.epochs_run >= 1);
    assert!(report.walk_stats.mean >= 1.0);
}

#[test]
fn node_classification_end_to_end_beats_chance() {
    let gen = tgraph::gen::temporal_sbm(400, 4, 14_000, 0.92, 5);
    let g = gen.builder.undirected(true).build();
    let report = Pipeline::new(Hyperparams::paper_optimal().quick_test())
        .run_node_classification(&g, &gen.labels)
        .unwrap();
    assert!(report.metrics.accuracy > 0.5, "accuracy {}", report.metrics.accuracy);
    assert!(report.metrics.macro_f1.unwrap() > 0.4);
}

#[test]
fn metrics_are_deterministic_in_seed() {
    let g = lp_graph();
    let hp = Hyperparams::paper_optimal().quick_test().with_seed(99).with_threads(1);
    let a = Pipeline::new(hp.clone()).run_link_prediction(&g).unwrap();
    let b = Pipeline::new(hp).run_link_prediction(&g).unwrap();
    assert_eq!(a.metrics.accuracy, b.metrics.accuracy);
    assert_eq!(a.metrics.auc, b.metrics.auc);
}

#[test]
fn gpu_backend_produces_same_accuracy_with_modeled_times() {
    let g = lp_graph();
    let hp = Hyperparams::paper_optimal().quick_test().with_seed(7).with_threads(1);
    let cpu = Pipeline::new(hp.clone()).run_link_prediction(&g).unwrap();
    let gpu = Pipeline::new(hp)
        .with_backend(Backend::GpuModel(perfmodel::GpuModel::ampere()))
        .run_link_prediction(&g)
        .unwrap();
    // Accuracy is computed by the same math; only times differ.
    assert_eq!(cpu.metrics.accuracy, gpu.metrics.accuracy);
    assert_eq!(gpu.backend, "gpu-model");
    assert!(gpu.phase_times.rwalk.as_secs_f64() > 0.0);
}

#[test]
fn residual_classifier_extension_runs() {
    // Paper §VIII-A: swapping in a ResNet-style classifier is a supported
    // extension; it must train and stay competitive.
    let g = lp_graph();
    let mut hp = Hyperparams::paper_optimal().quick_test();
    hp.residual = true;
    hp.hidden = 2 * hp.dim; // equal-width hidden layers enable skips
    let report = Pipeline::new(hp).run_link_prediction(&g).unwrap();
    assert!(report.metrics.accuracy > 0.55, "accuracy {}", report.metrics.accuracy);
}

#[test]
fn training_dominates_end_to_end_time() {
    // The paper's headline Table III observation. Use enough epochs that
    // the classifier does meaningful work.
    let report =
        Pipeline::new(Hyperparams::paper_optimal()).run_link_prediction(&lp_graph()).unwrap();
    assert!(
        report.phase_times.training_fraction() > 0.3,
        "training only {:.0}% of end-to-end",
        report.phase_times.training_fraction() * 100.0
    );
}

#[test]
fn baseline_strategies_run_and_beat_chance() {
    use rwalk_core::EmbeddingStrategy;
    let g = lp_graph();
    for strategy in
        [EmbeddingStrategy::StaticDeepWalk, EmbeddingStrategy::SnapshotDeepWalk { snapshots: 3 }]
    {
        let hp = Hyperparams::paper_optimal().quick_test().with_strategy(strategy);
        let report = Pipeline::new(hp).run_link_prediction(&g).unwrap();
        assert!(
            report.metrics.accuracy > 0.55,
            "{strategy:?} accuracy {}",
            report.metrics.accuracy
        );
    }
}

#[test]
fn static_walks_ignore_temporal_dead_ends() {
    use twalk::{generate_walks_serial, WalkConfig};
    // Decreasing timestamps stop temporal walks but not static ones.
    let g = tgraph::GraphBuilder::new()
        .add_edge(tgraph::TemporalEdge::new(0, 1, 0.9))
        .add_edge(tgraph::TemporalEdge::new(1, 2, 0.1))
        .build();
    let cfg = WalkConfig::new(1, 5).seed(1);
    let prepared = cfg.sampler.prepare(&g);
    let temporal = generate_walks_serial(&g, &cfg, &prepared);
    let static_ = generate_walks_serial(&g, &cfg.respect_time(false), &prepared);
    assert_eq!(temporal.walk(0), &[0, 1]);
    assert_eq!(static_.walk(0), &[0, 1, 2]);
}

#[test]
fn named_datasets_run_their_paper_task() {
    let hp = Hyperparams::paper_optimal().quick_test();
    let lp = datasets::ia_email(0.08);
    assert!(Pipeline::new(hp.clone()).run_link_prediction(&lp.graph).is_ok());
    let nc = datasets::dblp3(0.15);
    assert!(Pipeline::new(hp)
        .run_node_classification(&nc.graph, nc.labels.as_ref().unwrap())
        .is_ok());
}
