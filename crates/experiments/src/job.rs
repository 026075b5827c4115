//! The experiment job model: sharded units of work with structured
//! outputs, and the typed reports they reduce to.
//!
//! Every experiment module exposes the same two functions, named by
//! its row in `crate::REGISTRY`:
//!
//! * `jobs(quick, suite_seed) -> Vec<ExpJob>` — independent shards,
//!   each a label and a work closure. The harness owns the rest: a
//!   shard's number is its position in the list, its seed is
//!   [`job_seed`]`(suite_seed, id, shard)`, and it stamps the
//!   experiment id, shard and label onto the shard's [`JobOutput`];
//! * `reduce(Vec<JobOutput>) -> Report` — assembles the completed
//!   outputs, which the harness hands over in shard order, into a
//!   typed [`Report`] whose `text` is the human-readable rendering.
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
    let h = bcc_engine::fnv1a(experiment.as_bytes());
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
/// A job's work builds it from [`JobOutput::default`]; the harness
/// then stamps `experiment`, `shard` and `label`, overwriting whatever
/// the work set.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// work, set by the harness like the stamps above.
    /// A pure function of the work, so it feeds deterministic metrics;
    /// it is not part of the rendered output.
    pub cache_lookups: u64,
}

impl JobOutput {
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
    /// Human-readable shard label, unique within its experiment: the
    /// job id is `"<experiment>/<label>"`, and it names the job's trace
    /// and metrics unit.
    pub label: String,
    work: Box<dyn Fn(&JobCtx) -> JobOutput + Send>,
}

impl ExpJob {
    /// Packages a work closure as one shard.
    pub fn new(
        label: impl Into<String>,
        work: impl Fn(&JobCtx) -> JobOutput + Send + 'static,
    ) -> Self {
        ExpJob {
            label: label.into(),
            work: Box::new(work),
        }
    }

    /// Converts shard `shard` of `experiment` into a `bcc_runner` job
    /// with id `"<experiment>/<label>"` and seed
    /// [`job_seed`]`(suite_seed, experiment, shard)`. The job stamps
    /// its output with the experiment id, shard and label, and counts
    /// the artifact-cache lookups its work makes on its own thread into
    /// [`JobOutput::cache_lookups`], so concurrent runs in one process
    /// never see each other's lookups.
    pub(crate) fn into_runner_job(
        self,
        experiment: &'static str,
        shard: u32,
        suite_seed: u64,
        timeout: Option<Duration>,
    ) -> Job<JobOutput> {
        let id = format!("{experiment}/{}", self.label);
        let mut spec = JobSpec::new(id, job_seed(suite_seed, experiment, shard));
        if let Some(t) = timeout {
            spec = spec.with_timeout(t);
        }
        let ExpJob { label, work } = self;
        Job::new(spec, move |ctx| {
            let before = bcc_engine::thread_lookups();
            let mut out = work(ctx);
            out.cache_lookups = bcc_engine::thread_lookups() - before;
            out.experiment = experiment.to_string();
            out.shard = shard;
            out.label = label.clone();
            Ok(out)
        })
    }
}

impl std::fmt::Debug for ExpJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExpJob")
            .field("label", &self.label)
            .finish()
    }
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

    /// Every shard's seed, and so every report byte, hangs on these.
    #[test]
    fn job_seed_is_pinned() {
        assert_eq!(job_seed(DEFAULT_SEED, "e2", 0), 0xc327_0c00_0250_afa9);
        assert_eq!(job_seed(7, "f1", 3), 0xcbd2_8ead_8eb4_da01);
    }

    #[test]
    fn output_builder_and_lookups() {
        let o = JobOutput::default()
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
        let job = ExpJob::new("s", |ctx| {
            let store = bcc_engine::ArtifactStore::in_memory();
            bcc_engine::artifacts::join_matrix_rank(&store, 3);
            bcc_engine::artifacts::join_matrix_rank(&store, 3);
            JobOutput::default().value("seed", ctx.seed)
        });
        let result = crate::test_job_result(job.into_runner_job("ex", 2, 42, None));
        assert_eq!(result.id, "ex/s");
        let out = result.status.output().expect("completed");
        assert_eq!(out.int("seed"), Some(job_seed(42, "ex", 2) as i64));
        assert_eq!((out.experiment.as_str(), out.shard), ("ex", 2));
        assert_eq!(out.cache_lookups, 2);
    }
}
