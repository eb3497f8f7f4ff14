//! Pipeline run reports: per-phase timing and task metrics.

use std::time::Duration;

/// Which downstream task a report describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Edge existence prediction (binary).
    LinkPrediction,
    /// Multi-class vertex labeling.
    NodeClassification,
}

impl std::fmt::Display for TaskKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskKind::LinkPrediction => write!(f, "link prediction"),
            TaskKind::NodeClassification => write!(f, "node classification"),
        }
    }
}

/// Wall-clock time of each pipeline phase (the rows of Table III).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Temporal random walk (RW-P1).
    pub rwalk: Duration,
    /// word2vec embedding (RW-P2).
    pub word2vec: Duration,
    /// Data preparation (splits, negative sampling, features).
    pub data_prep: Duration,
    /// Total classifier training (RW-P3).
    pub train_total: Duration,
    /// Mean per-epoch training time (the quantity Table III reports).
    pub train_per_epoch: Duration,
    /// Classifier testing (RW-P4).
    pub test: Duration,
}

impl PhaseTimes {
    /// End-to-end time.
    pub fn total(&self) -> Duration {
        self.rwalk + self.word2vec + self.data_prep + self.train_total + self.test
    }

    /// Fraction of end-to-end time spent training — the paper's headline
    /// time-breakdown finding is that this dominates.
    pub fn training_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.train_total.as_secs_f64() / total
        }
    }
}

/// Quality metrics of the downstream task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskMetrics {
    /// Test accuracy (the paper's reported metric).
    pub accuracy: f64,
    /// Test ROC-AUC (link prediction only).
    pub auc: Option<f64>,
    /// Macro-F1 (node classification only).
    pub macro_f1: Option<f64>,
    /// Final training loss.
    pub final_train_loss: f64,
}

/// Everything a pipeline run produces besides the trained model.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskReport {
    /// Task identity.
    pub task: TaskKind,
    /// Quality metrics on the held-out test set.
    pub metrics: TaskMetrics,
    /// Per-phase wall-clock (or modeled-GPU) times.
    pub phase_times: PhaseTimes,
    /// Walk-length distribution of the generated corpus (Fig. 4 data).
    pub walk_stats: twalk::stats::WalkLengthStats,
    /// Build cost of the prepared transition sampler (CDF tables), when
    /// the corpus came from the bulk walk kernel.
    pub sampler_build: Option<twalk::SamplerBuildStats>,
    /// Classifier epochs actually run (early stop may cut them short).
    pub epochs_run: usize,
    /// `"cpu"` or `"gpu-model"`.
    pub backend: &'static str,
}

impl TaskReport {
    /// One-paragraph human-readable summary.
    pub fn summary(&self) -> String {
        let t = &self.phase_times;
        let mut s =
            format!("{} [{}]: accuracy {:.3}", self.task, self.backend, self.metrics.accuracy);
        if let Some(auc) = self.metrics.auc {
            s.push_str(&format!(", AUC {auc:.3}"));
        }
        if let Some(f1) = self.metrics.macro_f1 {
            s.push_str(&format!(", macro-F1 {f1:.3}"));
        }
        s.push_str(&format!(
            " | rwalk {:.3}s, word2vec {:.3}s, prep {:.3}s, train {:.3}s ({} epochs, {:.4}s/epoch), test {:.3}s",
            t.rwalk.as_secs_f64(),
            t.word2vec.as_secs_f64(),
            t.data_prep.as_secs_f64(),
            t.train_total.as_secs_f64(),
            self.epochs_run,
            t.train_per_epoch.as_secs_f64(),
            t.test.as_secs_f64(),
        ));
        if let Some(b) = self.sampler_build {
            if b.table_bytes > 0 {
                s.push_str(&format!(
                    " | sampler tables {:.1} KiB built in {:.4}s",
                    b.table_bytes as f64 / 1024.0,
                    b.build_time.as_secs_f64(),
                ));
            }
        }
        s
    }
}

/// Aggregate counters of a serving process — the online analog of
/// [`TaskReport`] for the `rwserve` subsystem. Batch pipelines report
/// per-phase wall-clock once; a server reports request mix, latency, and
/// `link_score` forward-pass sizes continuously.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeStats {
    /// Seconds the server has been up.
    pub uptime_secs: f64,
    /// Requests answered, successes and errors together.
    pub requests_total: u64,
    /// Requests answered with a structured error response.
    pub errors: u64,
    /// `link_score` requests.
    pub link_score: u64,
    /// `embedding` requests.
    pub embedding: u64,
    /// `topk` requests.
    pub topk: u64,
    /// `ingest` requests.
    pub ingest: u64,
    /// Mean per-request latency in microseconds.
    pub mean_latency_us: f64,
    /// Worst per-request latency in microseconds.
    pub max_latency_us: f64,
    /// `link_score` forward passes, passes of one included.
    pub batches: u64,
    /// Mean `link_score` requests scored per forward pass.
    pub mean_batch: f64,
    /// Version of the model snapshot currently being served.
    pub snapshot_version: u64,
    /// Background refresh cycles published since startup.
    pub refreshes: u64,
}

impl ServeStats {
    /// Requests per second over the whole uptime.
    pub fn throughput_rps(&self) -> f64 {
        if self.uptime_secs <= 0.0 {
            0.0
        } else {
            self.requests_total as f64 / self.uptime_secs
        }
    }

    /// One-paragraph human-readable summary (mirrors
    /// [`TaskReport::summary`]).
    pub fn summary(&self) -> String {
        format!(
            "serve [v{}]: {} requests ({} errors) in {:.1}s ({:.0} rps) | \
             link_score {}, embedding {}, topk {}, ingest {} | \
             latency mean {:.1}µs max {:.1}µs | {} batches, {:.1} req/batch | {} refreshes",
            self.snapshot_version,
            self.requests_total,
            self.errors,
            self.uptime_secs,
            self.throughput_rps(),
            self.link_score,
            self.embedding,
            self.topk,
            self.ingest,
            self.mean_latency_us,
            self.max_latency_us,
            self.batches,
            self.mean_batch,
            self.refreshes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_stats_throughput_and_summary() {
        let s = ServeStats {
            uptime_secs: 2.0,
            requests_total: 100,
            errors: 3,
            link_score: 60,
            embedding: 20,
            topk: 10,
            ingest: 7,
            mean_latency_us: 45.5,
            max_latency_us: 900.0,
            batches: 5,
            mean_batch: 12.0,
            snapshot_version: 4,
            refreshes: 3,
        };
        assert!((s.throughput_rps() - 50.0).abs() < 1e-9);
        let text = s.summary();
        assert!(text.contains("100 requests"));
        assert!(text.contains("v4"));
        assert!(text.contains("req/batch"));
        assert_eq!(ServeStats::default().throughput_rps(), 0.0);
    }

    #[test]
    fn phase_total_sums_components() {
        let t = PhaseTimes {
            rwalk: Duration::from_millis(10),
            word2vec: Duration::from_millis(20),
            data_prep: Duration::from_millis(5),
            train_total: Duration::from_millis(100),
            train_per_epoch: Duration::from_millis(10),
            test: Duration::from_millis(15),
        };
        assert_eq!(t.total(), Duration::from_millis(150));
        assert!((t.training_fraction() - 100.0 / 150.0).abs() < 1e-9);
    }

    #[test]
    fn empty_times_are_safe() {
        let t = PhaseTimes::default();
        assert_eq!(t.training_fraction(), 0.0);
    }

    #[test]
    fn task_kind_displays() {
        assert_eq!(TaskKind::LinkPrediction.to_string(), "link prediction");
        assert_eq!(TaskKind::NodeClassification.to_string(), "node classification");
    }
}
