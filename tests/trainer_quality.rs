//! Quality floors for the word2vec (RW-P2) trainer, end to end.
//!
//! Each case runs the full pipeline at a fixed seed on one and on two
//! threads, so a change to the SGNS step's learning dynamics (or to how
//! it is parallelized) that costs downstream quality fails here rather
//! than in a benchmark.

use rwalk_repro::prelude::*;

/// The paper's word2vec settings (3 epochs) with a short classifier
/// budget: the floors pin the embeddings, not the classifier.
fn hyperparams(threads: usize) -> Hyperparams {
    let mut hp = Hyperparams::paper_optimal().with_seed(3).with_threads(threads);
    hp.train_epochs = 10;
    hp
}

#[test]
fn link_prediction_auc_holds_on_a_pa_graph() {
    let g = tgraph::gen::preferential_attachment(2_000, 5, 7)
        .undirected(true)
        .normalize_times(true)
        .build();
    for threads in [1, 2] {
        let report = Pipeline::new(hyperparams(threads)).run_link_prediction(&g).unwrap();
        let auc = report.metrics.auc.unwrap();
        assert!(auc >= 0.85, "{threads} thread(s): AUC {auc}");
    }
}

#[test]
fn node_classification_accuracy_holds_on_a_temporal_sbm() {
    let gen = tgraph::gen::temporal_sbm(1_500, 5, 60_000, 0.85, 7);
    let g = gen.builder.undirected(true).build();
    for threads in [1, 2] {
        let report =
            Pipeline::new(hyperparams(threads)).run_node_classification(&g, &gen.labels).unwrap();
        let acc = report.metrics.accuracy;
        assert!(acc >= 0.95, "{threads} thread(s): accuracy {acc}");
    }
}
