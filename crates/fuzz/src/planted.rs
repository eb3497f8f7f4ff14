//! Planted-bug self-test: the harness must be able to kill mutants, not
//! just burn CPU. Two bugs are planted here as `#[cfg(test)]` shims, and
//! the tests assert the runner finds each one within its iteration
//! budget, auto-minimizes the failing input, and replays it
//! byte-identically from the printed `(seed, iteration)`.
//!
//! * **Framer split bug** (fixed in serve/src/reactor/conn.rs):
//!   the pre-fix `LineFramer::push` applied the line cap only to the
//!   unterminated tail, so a terminated overlong line was accepted when
//!   delivered in one push but poisoned the framer when split — the
//!   verdict depended on chunking. [`BuggyFramer`] reimplements exactly
//!   those semantics behind the real framer target's oracle.
//! * **Publish-before-build race** (a planted concurrency bug, modeling
//!   no code that ships): workers share a table that grows at token
//!   milestones; the worker that crosses one is elected to rebuild it,
//!   but publishes the new milestone before the build completes, so
//!   another worker can sample from a table that does not exist yet.
//!   [`race_model`] is that shape as a small state machine whose worker
//!   interleaving is decoded from the tape. It shows that a deterministic
//!   fuzzer finds a bad interleaving honestly when the schedule itself is
//!   input, the starting point for exploring the schedules of the real
//!   concurrent code.

use crate::rng::FuzzRng;
use crate::runner::{run_caught, Budget, FuzzTarget, Runner};
use crate::tape::Tape;
use crate::targets::framer::{check_framer, FramerImpl};

use rwserve::reactor::conn::Frame;

/// The pre-fix `LineFramer::push`: extracts completed lines without any
/// per-line length check, capping only the unterminated tail.
struct BuggyFramer {
    buf: Vec<u8>,
    max_line: usize,
    poisoned: bool,
}

impl FramerImpl for BuggyFramer {
    fn new(max_line: usize) -> Self {
        Self { buf: Vec::new(), max_line, poisoned: false }
    }

    fn push(&mut self, data: &[u8]) -> Result<Vec<Frame>, ()> {
        if self.poisoned {
            return Err(());
        }
        self.buf.extend_from_slice(data);
        let mut frames = Vec::new();
        let mut start = 0;
        while let Some(rel) = self.buf[start..].iter().position(|&b| b == b'\n') {
            // BUG (pre-fix): no `rel > self.max_line` check here.
            let line = &self.buf[start..start + rel];
            let text = String::from_utf8_lossy(line);
            let trimmed = text.trim();
            if !trimmed.is_empty() {
                if let Some(path) = trimmed.strip_prefix("GET ") {
                    let path = path.split_whitespace().next().unwrap_or("").to_string();
                    frames.push(Frame::HttpGet(path));
                } else {
                    frames.push(Frame::Line(trimmed.to_string()));
                }
            }
            start += rel + 1;
        }
        self.buf.drain(..start);
        if self.buf.len() > self.max_line {
            self.poisoned = true;
            self.buf = Vec::new();
            return Err(());
        }
        Ok(frames)
    }
}

/// The framer target with the buggy implementation swapped in; the tape
/// format is identical to the real target's, so real corpus entries are
/// directly meaningful here.
struct PlantedFramerTarget;

impl FuzzTarget for PlantedFramerTarget {
    fn name(&self) -> &'static str {
        "planted-framer"
    }
    fn generate(&self, rng: &mut FuzzRng) -> Vec<u8> {
        rng.bytes(192)
    }
    fn run(&self, input: &[u8]) -> Result<(), String> {
        let mut t = Tape::new(input);
        if t.u8().is_multiple_of(2) {
            check_framer::<BuggyFramer>(&mut t)
        } else {
            Ok(()) // the WriteBuf half of the real target is not planted
        }
    }
}

/// Token milestones at which the shared table doubles.
const MILESTONES: [u64; 3] = [4, 8, 16];

/// Deterministic replay of the publish-before-build race. The tape
/// decodes a worker interleaving; `fixed` selects the corrected semantics
/// (the table is built before the milestone is published — the
/// double-checked locking fix) or the buggy ones (published first, built
/// at the elected worker's *next* turn).
fn race_model(t: &mut Tape, fixed: bool) -> Result<(), String> {
    let workers = 2 + t.choice(2);
    let steps = t.choice(24) + 2;
    let mut tokens = 0u64;
    let mut published = 0usize; // milestone index visible to samplers
    let mut built = 0usize; // tables actually constructed
    let mut pending: Option<usize> = None; // elected rebuilder yet to run
    for _ in 0..steps {
        let w = t.choice(workers);
        match t.choice(3) {
            0 => {
                // Worker processes a chunk and may cross a milestone.
                tokens += t.choice(6) as u64 + 1;
                if published < MILESTONES.len()
                    && tokens >= MILESTONES[published]
                    && pending.is_none()
                {
                    published += 1; // CAS election: w owns the rebuild
                    if fixed {
                        built = published;
                    } else {
                        pending = Some(w); // BUG: published before built
                    }
                }
            }
            1 => {
                // The elected worker gets scheduled and builds the table.
                if pending == Some(w) {
                    built = published;
                    pending = None;
                }
            }
            _ => {
                // Any worker samples negatives from the current table.
                if built < published {
                    return Err(format!(
                        "negative-table race: worker {w} sampled milestone {published} \
                         before its table was built (built={built})"
                    ));
                }
            }
        }
    }
    Ok(())
}

struct PlantedRaceTarget;

impl FuzzTarget for PlantedRaceTarget {
    fn name(&self) -> &'static str {
        "planted-race"
    }
    fn generate(&self, rng: &mut FuzzRng) -> Vec<u8> {
        rng.bytes(64)
    }
    fn run(&self, input: &[u8]) -> Result<(), String> {
        race_model(&mut Tape::new(input), false)
    }
}

/// The corrected model, used to prove the failing schedule is cured by
/// the fix rather than being an oracle artifact.
struct FixedRaceTarget;

impl FuzzTarget for FixedRaceTarget {
    fn name(&self) -> &'static str {
        "fixed-race"
    }
    fn generate(&self, rng: &mut FuzzRng) -> Vec<u8> {
        rng.bytes(64)
    }
    fn run(&self, input: &[u8]) -> Result<(), String> {
        race_model(&mut Tape::new(input), true)
    }
}

/// Shared assertion: find the planted bug within `budget` iterations,
/// verify byte-identical replay from the printed (seed, iteration) on an
/// independent runner, and verify the minimized input still fails.
fn assert_planted_bug_found(target: &dyn FuzzTarget, seed: u64, budget: u64) -> crate::Failure {
    let runner = Runner::new(seed, Budget::iters(budget));
    let report = runner.run(target);
    let failure = report.failure.unwrap_or_else(|| {
        panic!(
            "planted bug in {} not found within {budget} iterations (seed {seed})",
            target.name()
        )
    });
    // Replay contract: a *fresh* runner rebuilds the exact input bytes
    // from (seed, iteration) alone.
    let replayer = Runner::new(seed, Budget::iters(budget));
    let rebuilt = replayer.input_for(target, failure.iteration);
    assert_eq!(rebuilt, failure.input, "replay is not byte-identical");
    assert!(run_caught(target, &failure.input).is_err(), "replayed input no longer fails");
    // Minimization: still failing, never larger than the original.
    assert!(run_caught(target, &failure.minimized).is_err(), "minimized input does not fail");
    assert!(failure.minimized.len() <= failure.input.len());
    failure
}

#[test]
fn harness_finds_planted_framer_split_bug() {
    let failure = assert_planted_bug_found(&PlantedFramerTarget, 0xF4A3, 50_000);
    // The cured implementation accepts both the original and the
    // minimized input: the real framer target is the fixed twin.
    let real = crate::targets::framer::FramerTarget;
    assert!(real.run(&failure.input).is_ok(), "fixed framer still fails the found input");
    assert!(real.run(&failure.minimized).is_ok());
}

#[test]
fn planted_framer_bug_fires_on_checked_in_corpus_entry() {
    // The minimized corpus entry that documents the fixed framer bug
    // must reproduce the failure against the buggy shim...
    let entry = include_bytes!("../tests/corpus/framer/overlong-terminated-line.bin");
    assert!(
        PlantedFramerTarget.run(entry).is_err(),
        "corpus entry no longer triggers the pre-fix framer"
    );
    // ...and pass against the fixed framer (also asserted for the whole
    // corpus by tests/regression_corpus.rs).
    assert!(crate::targets::framer::FramerTarget.run(entry).is_ok());
}

#[test]
fn harness_finds_planted_negative_table_race() {
    let failure = assert_planted_bug_found(&PlantedRaceTarget, 0x9AC3, 20_000);
    assert!(failure.message.contains("negative-table race"), "{}", failure.message);
    // The double-checked-locking semantics cure the found schedule.
    assert!(FixedRaceTarget.run(&failure.input).is_ok(), "fixed model still fails");
    assert!(FixedRaceTarget.run(&failure.minimized).is_ok());
}

#[test]
fn fixed_race_model_survives_a_full_campaign() {
    // No schedule reachable within the same budget breaks the fixed
    // model — the planted failure is the bug, not the oracle.
    let runner = Runner::new(0x9AC3, Budget::iters(20_000));
    let report = runner.run(&FixedRaceTarget);
    assert!(report.failure.is_none(), "fixed model failed: {:?}", report.failure);
}

#[test]
fn planted_failures_replay_identically_across_campaigns() {
    // Two independent full campaigns over the same seed must report the
    // same iteration and the same bytes — the strongest form of the
    // determinism contract.
    let a = Runner::new(0xF4A3, Budget::iters(50_000)).run(&PlantedFramerTarget);
    let b = Runner::new(0xF4A3, Budget::iters(50_000)).run(&PlantedFramerTarget);
    let (fa, fb) = (a.failure.expect("first"), b.failure.expect("second"));
    assert_eq!(fa.iteration, fb.iteration);
    assert_eq!(fa.input, fb.input);
    assert_eq!(fa.minimized, fb.minimized);
    assert_eq!(fa.message, fb.message);
}
