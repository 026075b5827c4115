//! The experiment job model: sharded units of work with structured
//! outputs, and the typed reports they reduce to.
//!
//! Every experiment module exposes the same shape:
//!
//! * `jobs(quick, suite_seed) -> Vec<ExpJob>` — independent shards,
//!   each with a deterministic per-job seed derived from the suite
//!   seed, the experiment id, and the shard index;
//! * `reduce(Vec<JobOutput>) -> Report` — order-insensitive assembly
//!   (outputs are sorted by shard first), producing a typed [`Report`]
//!   whose `text` is the human-readable rendering.
//!
//! Jobs run only through `crate::RunRequest`, on a `bcc_runner::Pool`
//! of any width; reports are byte-identical at every thread count
//! because every job's output is a pure function of its seed.

use bcc_runner::{Job, JobCtx, JobSpec};
use std::time::Duration;

/// The CLI's default suite seed; `--seed` overrides it.
pub const DEFAULT_SEED: u64 = 2024;

/// Derives the deterministic seed of one job from the suite seed, the
/// experiment id, and the shard index (FNV-1a over the id, then a
/// SplitMix64 finalizer so nearby shards get unrelated streams).
pub fn job_seed(suite_seed: u64, experiment: &str, shard: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in experiment.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = suite_seed ^ h ^ ((shard as u64) << 32) ^ shard as u64;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One measured value in a job output or report.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer-valued measurement (counts, sizes, rounds, bits).
    Int(i64),
    /// Real-valued measurement (errors, ratios, bounds).
    Float(f64),
    /// Boolean measurement (verified properties).
    Bool(bool),
    /// Free-form measurement (names, formatted summaries).
    Str(String),
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl Value {
    /// The integer, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float (also accepting `Int`), if numeric.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The boolean, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }
}

/// The structured result of one job: measured values, pass/fail
/// checks, and the text fragment this shard contributes to the report.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// Experiment id (`"e3"`).
    pub experiment: String,
    /// Shard index within the experiment (defines reduce order).
    pub shard: u32,
    /// Human-readable shard label (`"M n=4"`).
    pub label: String,
    /// Measured values, in insertion order.
    pub values: Vec<(String, Value)>,
    /// Named pass/fail paper-shape checks.
    pub checks: Vec<(String, bool)>,
    /// Text fragment (report lines produced by this shard).
    pub text: String,
    /// Artifact-cache lookups (hits + misses) made inside this job's
    /// work, set by the runner job [`ExpJob::into_runner_job`] builds.
    /// A pure function of the work, so it feeds deterministic metrics;
    /// it is not part of the rendered output.
    pub cache_lookups: u64,
}

impl JobOutput {
    /// An empty output for one shard.
    pub fn new(experiment: impl Into<String>, shard: u32, label: impl Into<String>) -> Self {
        JobOutput {
            experiment: experiment.into(),
            shard,
            label: label.into(),
            values: Vec::new(),
            checks: Vec::new(),
            text: String::new(),
            cache_lookups: 0,
        }
    }

    /// Adds a measured value.
    #[must_use]
    pub fn value(mut self, key: impl Into<String>, val: impl Into<Value>) -> Self {
        self.values.push((key.into(), val.into()));
        self
    }

    /// Adds a pass/fail check.
    #[must_use]
    pub fn check(mut self, key: impl Into<String>, ok: bool) -> Self {
        self.checks.push((key.into(), ok));
        self
    }

    /// Sets the text fragment.
    #[must_use]
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.text = text.into();
        self
    }

    /// Looks up an integer value.
    pub fn int(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(Value::as_int)
    }

    /// Looks up a numeric value as `f64`.
    pub fn float(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Value::as_float)
    }

    /// Looks up a boolean value.
    pub fn flag(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(Value::as_bool)
    }

    /// Looks up a value by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.values.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// True when every check in this output passed.
    pub fn checks_pass(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
    }
}

/// A schedulable shard of one experiment. The work closure must be a
/// pure function of the per-job seed (plus its captured, immutable
/// parameters) so that serial and parallel runs agree exactly.
pub struct ExpJob {
    /// Experiment id.
    pub experiment: &'static str,
    /// Shard index (reduce order).
    pub shard: u32,
    /// Human-readable shard label.
    pub label: String,
    /// The job's deterministic seed.
    pub seed: u64,
    work: Box<dyn Fn(&JobCtx) -> JobOutput + Send>,
}

impl ExpJob {
    /// Packages a work closure as one shard. `seed` should come from
    /// [`job_seed`] so runs are reproducible under any thread count.
    pub fn new(
        experiment: &'static str,
        shard: u32,
        label: impl Into<String>,
        seed: u64,
        work: impl Fn(&JobCtx) -> JobOutput + Send + 'static,
    ) -> Self {
        ExpJob {
            experiment,
            shard,
            label: label.into(),
            seed,
            work: Box::new(work),
        }
    }

    /// Stable job id (`"e3/M n=4"`).
    pub fn id(&self) -> String {
        format!("{}/{}", self.experiment, self.label)
    }

    /// Converts into a `bcc_runner` job for pool execution. The job
    /// counts the artifact-cache lookups its work makes on its own
    /// thread into [`JobOutput::cache_lookups`], so concurrent runs in
    /// one process never see each other's lookups.
    pub fn into_runner_job(self, timeout: Option<Duration>) -> Job<JobOutput> {
        let mut spec = JobSpec::new(self.id(), self.seed);
        if let Some(t) = timeout {
            spec = spec.with_timeout(t);
        }
        let work = self.work;
        Job::new(spec, move |ctx| {
            let before = bcc_engine::thread_lookups();
            let mut out = work(ctx);
            out.cache_lookups = bcc_engine::thread_lookups() - before;
            Ok(out)
        })
    }
}

impl std::fmt::Debug for ExpJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExpJob")
            .field("experiment", &self.experiment)
            .field("shard", &self.shard)
            .field("label", &self.label)
            .field("seed", &self.seed)
            .finish()
    }
}

/// Sorts outputs into shard order; reduce functions call this first so
/// they are insensitive to completion order.
pub fn sort_by_shard(outputs: &mut [JobOutput]) {
    outputs.sort_by_key(|o| o.shard);
}

/// The typed, reduced result of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Experiment id (series name).
    pub experiment: String,
    /// One-line series title.
    pub title: String,
    /// Run parameters (sizes, budgets, trial counts).
    pub params: Vec<(String, Value)>,
    /// Aggregated measured values.
    pub values: Vec<(String, Value)>,
    /// All pass/fail paper-shape checks (per-shard checks prefixed
    /// with their shard label, plus aggregate checks).
    pub checks: Vec<(String, bool)>,
    /// True when every check passed.
    pub passed: bool,
    /// Human-readable rendering.
    pub text: String,
}

impl Report {
    /// An empty report for one experiment.
    pub fn new(experiment: impl Into<String>, title: impl Into<String>) -> Self {
        Report {
            experiment: experiment.into(),
            title: title.into(),
            params: Vec::new(),
            values: Vec::new(),
            checks: Vec::new(),
            passed: true,
            text: String::new(),
        }
    }

    /// Adds a run parameter.
    pub fn param(&mut self, key: impl Into<String>, val: impl Into<Value>) {
        self.params.push((key.into(), val.into()));
    }

    /// Adds an aggregated value.
    pub fn value(&mut self, key: impl Into<String>, val: impl Into<Value>) {
        self.values.push((key.into(), val.into()));
    }

    /// Adds an aggregate check.
    pub fn check(&mut self, key: impl Into<String>, ok: bool) {
        self.checks.push((key.into(), ok));
    }

    /// Copies every per-shard check in, prefixed with its shard label.
    pub fn absorb_checks(&mut self, outputs: &[JobOutput]) {
        for o in outputs {
            for (k, ok) in &o.checks {
                self.checks.push((format!("{}: {}", o.label, k), *ok));
            }
        }
    }

    /// Recomputes `passed` from the checks and returns the report.
    #[must_use]
    pub fn finalize(mut self) -> Self {
        self.passed = self.checks.iter().all(|&(_, ok)| ok);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_seed_varies_by_every_input() {
        let base = job_seed(1, "e3", 0);
        assert_ne!(base, job_seed(2, "e3", 0));
        assert_ne!(base, job_seed(1, "e4", 0));
        assert_ne!(base, job_seed(1, "e3", 1));
        assert_eq!(base, job_seed(1, "e3", 0));
    }

    #[test]
    fn output_builder_and_lookups() {
        let o = JobOutput::new("e1", 3, "row")
            .value("n", 27usize)
            .value("floor", 0.25)
            .value("ok", true)
            .check("shape", true)
            .text("line\n");
        assert_eq!(o.int("n"), Some(27));
        assert_eq!(o.float("floor"), Some(0.25));
        assert_eq!(o.float("n"), Some(27.0));
        assert_eq!(o.flag("ok"), Some(true));
        assert!(o.checks_pass());
        assert_eq!(o.get("missing"), None);
    }

    #[test]
    fn report_finalize_tracks_checks() {
        let mut r = Report::new("e1", "t");
        r.check("a", true);
        assert!(r.clone().finalize().passed);
        r.check("b", false);
        assert!(!r.finalize().passed);
    }

    #[test]
    fn runner_job_counts_its_own_cache_lookups() {
        let job = ExpJob::new("ex", 0, "s", 42, |ctx| {
            let store = bcc_engine::ArtifactStore::in_memory();
            bcc_engine::artifacts::join_matrix_rank(&store, 3);
            bcc_engine::artifacts::join_matrix_rank(&store, 3);
            JobOutput::new("ex", 0, "s").value("seed", ctx.seed)
        });
        let out = job.into_runner_job(None).run_inline().status.into_output();
        let out = out.expect("completed");
        assert_eq!(out.int("seed"), Some(42));
        assert_eq!(out.cache_lookups, 2);
    }

    #[test]
    fn sort_by_shard_orders() {
        let mut outs = vec![
            JobOutput::new("e", 2, "c"),
            JobOutput::new("e", 0, "a"),
            JobOutput::new("e", 1, "b"),
        ];
        sort_by_shard(&mut outs);
        let labels: Vec<&str> = outs.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(labels, ["a", "b", "c"]);
    }
}
