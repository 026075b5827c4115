//! Experiment harness: regenerates every figure- and theorem-level
//! data series of the paper (see DESIGN.md §3 for the index, and
//! EXPERIMENTS.md for recorded results).
//!
//! Each experiment module exposes `jobs(quick, seed)` (its shards,
//! each a label and a work closure) and `reduce(outputs)` (assembly of
//! the completed shards, in shard order, into a typed
//! [`job::Report`]). Adding an experiment is one such module plus one
//! [`REGISTRY`] row naming its id and both functions; the harness
//! numbers, seeds and stamps the shards (see [`job`]). Every run — the
//! `bcc-experiments` binary (ids `f1`, `f2`, `e1`…`e12`, or `all`),
//! the `bcc-serve` daemon, and the tests — goes
//! through one [`RunRequest`], which fans shards out over a
//! `bcc_runner::Pool`; reports are byte-identical at any thread count
//! because every shard's output is a pure function of its seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod exp_e10_lattice;
pub mod exp_e11_mst;
pub mod exp_e12_question2;
pub mod exp_e1_star;
pub mod exp_e2_indist;
pub mod exp_e3_rank;
pub mod exp_e4_two_party;
pub mod exp_e5_simulation;
pub mod exp_e6_info;
pub mod exp_e7_upper_bounds;
pub mod exp_e8_sketch;
pub mod exp_e9_range;
pub mod exp_f1_crossing;
pub mod exp_f2_reduction;
pub mod job;
pub mod json;

use bcc_metrics::{MetricsDump, MetricsHub, MetricsLevel};
use bcc_trace::{Collector, Trace};
use job::{ExpJob, JobOutput, Report};
use std::time::Duration;

/// Error for an experiment id outside [`REGISTRY`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExperiment {
    /// The id that failed to resolve.
    pub id: String,
}

impl std::fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        write!(
            f,
            "unknown experiment id {:?} (use one of {ids:?})",
            self.id
        )
    }
}

impl std::error::Error for UnknownExperiment {}

/// One experiment series, as the dispatcher sees it: a stable id, a
/// sharded job list, and the reduction of the shards' outputs.
#[derive(Debug)]
pub struct Experiment {
    /// The dispatch id (`"f1"`, `"e1"`, …), unique across [`REGISTRY`].
    pub id: &'static str,
    /// `jobs(quick, suite_seed)`: the shards, in shard order. The
    /// harness derives every shard's seed from `suite_seed`, so reports
    /// are reproducible at any thread count.
    pub jobs: fn(bool, u64) -> Vec<ExpJob>,
    /// Assembles the completed shards' outputs, in shard order, into
    /// the experiment's typed report.
    pub reduce: fn(Vec<JobOutput>) -> Report,
}

/// Every experiment, in presentation order — the single dispatch
/// table behind [`experiment`] and [`RunRequest`]. Lint rule R1 checks
/// that every `exp_*` module has a row naming its `jobs` and `reduce`.
#[rustfmt::skip]
pub static REGISTRY: [Experiment; 14] = [
    Experiment { id: "f1", jobs: exp_f1_crossing::jobs, reduce: exp_f1_crossing::reduce },
    Experiment { id: "f2", jobs: exp_f2_reduction::jobs, reduce: exp_f2_reduction::reduce },
    Experiment { id: "e1", jobs: exp_e1_star::jobs, reduce: exp_e1_star::reduce },
    Experiment { id: "e2", jobs: exp_e2_indist::jobs, reduce: exp_e2_indist::reduce },
    Experiment { id: "e3", jobs: exp_e3_rank::jobs, reduce: exp_e3_rank::reduce },
    Experiment { id: "e4", jobs: exp_e4_two_party::jobs, reduce: exp_e4_two_party::reduce },
    Experiment { id: "e5", jobs: exp_e5_simulation::jobs, reduce: exp_e5_simulation::reduce },
    Experiment { id: "e6", jobs: exp_e6_info::jobs, reduce: exp_e6_info::reduce },
    Experiment { id: "e7", jobs: exp_e7_upper_bounds::jobs, reduce: exp_e7_upper_bounds::reduce },
    Experiment { id: "e8", jobs: exp_e8_sketch::jobs, reduce: exp_e8_sketch::reduce },
    Experiment { id: "e9", jobs: exp_e9_range::jobs, reduce: exp_e9_range::reduce },
    Experiment { id: "e10", jobs: exp_e10_lattice::jobs, reduce: exp_e10_lattice::reduce },
    Experiment { id: "e11", jobs: exp_e11_mst::jobs, reduce: exp_e11_mst::reduce },
    Experiment { id: "e12", jobs: exp_e12_question2::jobs, reduce: exp_e12_question2::reduce },
];

/// Looks an experiment up in [`REGISTRY`] by id.
pub fn experiment(id: &str) -> Result<&'static Experiment, UnknownExperiment> {
    REGISTRY
        .iter()
        .find(|e| e.id == id)
        .ok_or_else(|| UnknownExperiment { id: id.into() })
}

/// The result of a run: per-experiment reports in request order, the
/// raw per-job results (submission order), and the pool's metrics
/// snapshot.
#[derive(Debug)]
pub struct SuiteRun {
    /// One reduced (possibly degraded) report per requested
    /// experiment, in request order.
    pub reports: Vec<Report>,
    /// Every job's structured result, in submission order.
    pub job_results: Vec<bcc_runner::JobResult<JobOutput>>,
    /// Scheduler counters and latency histogram of the pool.
    pub metrics: bcc_runner::MetricsSnapshot,
    /// Artifact-cache lookups (hits + misses) made inside the
    /// completed jobs' work. Counted per job, so it is a pure function
    /// of the request even while other runs share the process-wide
    /// store; reduce-time lookups are not counted.
    pub cache_lookups: u64,
    /// The merged trace — filled by [`RunRequest::run`] from the
    /// request's collector (empty when unobserved), left empty by
    /// [`RunRequest::run_on_pool`], whose sinks outlive the request.
    /// Merged by `(unit, seq)`, so it is byte-identical at any thread
    /// count, and collecting it never changes a report byte.
    pub trace: Trace,
    /// The merged deterministic workload-metrics dump — filled like
    /// [`trace`](Self::trace). Counters and histograms merge
    /// commutatively across per-job buffers, so the dump is
    /// byte-identical at any thread count, and collecting it never
    /// changes a report byte.
    pub workload: MetricsDump,
}

/// A reduce over missing shards (timed out, failed, panicked,
/// cancelled) can pass vacuously — an empty table satisfies every
/// "all rows ..." check. Surface the loss as a failing check so a
/// partial report can never read as a clean pass.
fn degrade_partial(mut report: Report, completed: usize, scheduled: usize) -> Report {
    if completed < scheduled {
        report
            .checks
            .push((format!("all {scheduled} jobs completed"), false));
        report.passed = false;
        report.text.push_str(&format!(
            "!! only {completed}/{scheduled} jobs completed — partial report\n"
        ));
    }
    report
}

/// A registry-dispatched run request — the single entry point for
/// running experiments. The request is fully described by logical
/// parameters, so each reduced report is a pure function of
/// `(id, quick, seed)`; everything else (threads, cache, observers,
/// transport) only changes *how* it is computed.
///
/// ```no_run
/// use bcc_experiments::RunRequest;
/// use bcc_model::TransportSpec;
/// let run = RunRequest::new(["e2"], true, 42)
///     .jobs(4)
///     .cache("/tmp/bcc-cache")
///     .transport(TransportSpec::Sockets(2))
///     .run()
///     .expect("known id");
/// println!("{}", run.reports[0].text);
/// ```
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Experiment ids (`"e2"`, …), in report order. A repeated id
    /// runs and reports once, at its first position.
    pub ids: Vec<String>,
    /// Trim instance sizes.
    pub quick: bool,
    /// Suite seed every per-job seed derives from.
    pub seed: u64,
    /// Optional per-job wall-clock deadline.
    pub timeout: Option<Duration>,
    threads: usize,
    cache_dir: Option<std::path::PathBuf>,
    transport: Option<bcc_model::TransportSpec>,
    collector: Option<Collector>,
    hub: Option<MetricsHub>,
}

impl RunRequest {
    /// A request for the given ids, profile, and seed; single-threaded,
    /// uncached, unobserved, on the process-default transport.
    pub fn new<I, S>(ids: I, quick: bool, seed: u64) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        RunRequest {
            ids: ids.into_iter().map(Into::into).collect(),
            quick,
            seed,
            timeout: None,
            threads: 1,
            cache_dir: None,
            transport: None,
            collector: None,
            hub: None,
        }
    }

    /// Worker threads for [`run`](Self::run) (ignored by
    /// [`run_on_pool`](Self::run_on_pool), where the pool is the
    /// caller's). Clamped to at least 1.
    #[must_use]
    pub fn jobs(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Backs the process-wide artifact cache with this directory
    /// before running (see [`cache::configure_disk`]). Cached or not,
    /// reports are byte-identical — the store only trades
    /// recomputation for lookups.
    #[must_use]
    pub fn cache(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Per-job wall-clock deadline.
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Streams traces and workload metrics into caller-owned sinks
    /// (both are `Arc`-backed handles). Only logical quantities are
    /// recorded (bits, rounds, lookups — never clock readings), so the
    /// merged streams are byte-identical at any thread count.
    /// Unobserved requests pay nothing for either.
    #[must_use]
    pub fn observed(mut self, collector: Collector, hub: MetricsHub) -> Self {
        self.collector = Some(collector);
        self.hub = Some(hub);
        self
    }

    /// Installs this transport as the process-wide default before
    /// running. Left unset, the request runs on whatever is already
    /// installed (the in-process `local` backend unless a host
    /// installed something else) — so a daemon-level `--transport`
    /// is not stomped by per-request submissions. Reports, traces, and
    /// metrics dumps are byte-identical across backends (DESIGN.md
    /// §14).
    #[must_use]
    pub fn transport(mut self, spec: bcc_model::TransportSpec) -> Self {
        self.transport = Some(spec);
        self
    }

    /// The request's sinks, or disabled ones (which cost nothing) when
    /// it is unobserved.
    fn sinks(&self) -> (Collector, MetricsHub) {
        (
            self.collector.clone().unwrap_or_else(Collector::disabled),
            self.hub.clone().unwrap_or_else(MetricsHub::disabled),
        )
    }

    /// Runs on a freshly created pool with [`jobs`](Self::jobs)-many
    /// threads — the CLI host's path. On top of
    /// [`run_on_pool`](Self::run_on_pool) it books the `suite`
    /// accounting unit, drains the transport's telemetry into the
    /// sinks, and returns them finished in
    /// [`SuiteRun::trace`]/[`SuiteRun::workload`].
    ///
    /// # Errors
    ///
    /// Returns [`UnknownExperiment`] for an id outside the registry.
    pub fn run(&self) -> Result<SuiteRun, UnknownExperiment> {
        let pool = bcc_runner::Pool::new(self.threads);
        let mut run = self.run_on_pool(&pool, &bcc_runner::CancellationToken::new())?;
        let (collector, hub) = self.sinks();
        if hub.enabled() {
            // Suite-level unit: workload shape plus the cache *lookup*
            // count. Lookups (hits + misses) are a pure function of the
            // job list, unlike the hit/miss split, which depends on
            // interleaving and on what earlier runs left in the shared
            // store — so only the deterministic quantity goes in the dump.
            let mut buf = hub.buf("suite");
            buf.counter("suite.experiments", run.reports.len() as u64);
            buf.counter("suite.jobs", run.job_results.len() as u64);
            buf.counter("cache.lookups", run.cache_lookups);
            hub.absorb(buf);
        }
        if collector.enabled() {
            // Mirror the suite-scope costs into the trace under the same
            // canonical names, so the profiler can attribute them (they
            // land at the suite unit's floor, outside any span).
            let mut tbuf = collector.buf("suite");
            tbuf.counter("suite.experiments", run.reports.len() as u64);
            tbuf.counter("suite.jobs", run.job_results.len() as u64);
            tbuf.counter("cache.lookups", run.cache_lookups);
            collector.absorb(tbuf);
        }
        // Drain the transport's per-worker telemetry into the same sinks
        // before they finish — a no-op on the local backend, which never
        // accumulates any (DESIGN.md §15). Sessions are rank-ordered and
        // canonically sorted on the way in, so the flushed units are
        // byte-identical at any thread count.
        bcc_model::transport::default_factory().flush_telemetry(&collector, &hub);
        run.trace = collector.finish();
        run.workload = hub.finish();
        Ok(run)
    }

    /// Runs on a caller-owned pool — the one pipeline every run goes
    /// through, and the submission path a long-lived service schedules
    /// on. The pool and cancellation token outlive the request, so
    /// repeat submissions share one warm process-wide [`cache`] store
    /// and (via [`observed`](Self::observed)) one merged observability
    /// stream.
    ///
    /// All shards of all requested experiments are flattened into a
    /// single job list so the pool can balance across experiments; the
    /// completed outputs are regrouped by experiment id and reduced in
    /// request order. Shards that failed, timed out, or were cancelled
    /// contribute no output, and their report is degraded to a failing
    /// partial one.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownExperiment`] for an id outside the registry,
    /// before any job runs; admission layers should reject such
    /// requests without scheduling.
    pub fn run_on_pool(
        &self,
        pool: &bcc_runner::Pool,
        token: &bcc_runner::CancellationToken,
    ) -> Result<SuiteRun, UnknownExperiment> {
        if let Some(spec) = self.transport {
            bcc_transport::install(spec);
        }
        if let Some(dir) = &self.cache_dir {
            cache::configure_disk(dir.clone());
        }
        let mut experiments: Vec<&Experiment> = Vec::new();
        for id in &self.ids {
            let exp = experiment(id)?;
            if !experiments.iter().any(|e| e.id == exp.id) {
                experiments.push(exp);
            }
        }
        Ok(self.run_experiments(&experiments, pool, token))
    }

    /// Runs resolved experiments on `pool`. Shard `k` of experiment
    /// `id` is the `k`-th entry of its `jobs` list, seeded with
    /// `job_seed(seed, id, k)`; its output is stamped with `id`, `k`
    /// and the shard's label, and `reduce` gets the outputs in shard
    /// order.
    fn run_experiments(
        &self,
        experiments: &[&Experiment],
        pool: &bcc_runner::Pool,
        token: &bcc_runner::CancellationToken,
    ) -> SuiteRun {
        let runner_jobs: Vec<bcc_runner::Job<JobOutput>> = experiments
            .iter()
            .flat_map(|e| {
                (e.jobs)(self.quick, self.seed)
                    .into_iter()
                    .zip(0u32..)
                    .map(|(job, shard)| job.into_runner_job(e.id, shard, self.seed, self.timeout))
            })
            .collect();
        let (collector, hub) = self.sinks();
        let job_results = pool.execute(runner_jobs, token, &collector, &hub);
        let cache_lookups = job_results
            .iter()
            .filter_map(|r| r.status.output())
            .map(|o| o.cache_lookups)
            .sum();
        let reports = experiments
            .iter()
            .map(|e| {
                // The pool returns results in submission order, and each
                // experiment's shards are submitted in shard order.
                let outputs: Vec<JobOutput> = job_results
                    .iter()
                    .filter_map(|r| r.status.output())
                    .filter(|o| o.experiment == e.id)
                    .cloned()
                    .collect();
                let prefix = format!("{}/", e.id);
                let scheduled = job_results
                    .iter()
                    .filter(|r| r.id.starts_with(&prefix))
                    .count();
                let completed = outputs.len();
                degrade_partial((e.reduce)(outputs), completed, scheduled)
            })
            .collect();
        SuiteRun {
            reports,
            job_results,
            metrics: pool.metrics().snapshot(),
            cache_lookups,
            trace: Collector::disabled().finish(),
            workload: MetricsDump::empty(MetricsLevel::Off),
        }
    }
}

/// Runs one experiment with the default seed on one thread,
/// unobserved — the shape the per-module tests check.
#[cfg(test)]
pub(crate) fn test_report(id: &str, quick: bool) -> Report {
    let mut run = RunRequest::new([id], quick, job::DEFAULT_SEED)
        .run()
        .expect("registered id");
    run.reports.remove(0)
}

/// Runs one runner job on a one-thread pool, unobserved.
#[cfg(test)]
pub(crate) fn test_job_result<T: Send>(job: bcc_runner::Job<T>) -> bcc_runner::JobResult<T> {
    bcc_runner::Pool::new(1)
        .execute(
            vec![job],
            &bcc_runner::CancellationToken::new(),
            &bcc_trace::Collector::disabled(),
            &bcc_metrics::MetricsHub::disabled(),
        )
        .remove(0)
}

#[cfg(test)]
mod tests {
    use super::job::{job_seed, ExpJob, JobOutput, Report, Value, DEFAULT_SEED};
    use super::{Experiment, RunRequest, REGISTRY};
    use std::collections::BTreeSet;
    use std::time::Duration;

    #[test]
    fn experiment_lookup_resolves_every_id() {
        for e in &REGISTRY {
            let found = super::experiment(e.id).expect("registered id");
            assert!(std::ptr::eq(found, e));
        }
        assert!(super::experiment("zzz").is_err());
    }

    #[test]
    fn unknown_id_message_lists_every_id_in_order() {
        let err = super::experiment("zzz").unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown experiment id \"zzz\" (use one of [\"f1\", \"f2\", \"e1\", \"e2\", \
             \"e3\", \"e4\", \"e5\", \"e6\", \"e7\", \"e8\", \"e9\", \"e10\", \"e11\", \"e12\"])"
        );
        let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        assert!(err.to_string().ends_with(&format!("{ids:?})")));
    }

    #[test]
    fn job_labels_are_unique_within_each_experiment() {
        // Two shards with one label would share a job id, and so a trace
        // and metrics unit whose events then merge by `seq` alone.
        for quick in [true, false] {
            for e in &REGISTRY {
                let labels: Vec<String> = (e.jobs)(quick, DEFAULT_SEED)
                    .into_iter()
                    .map(|j| j.label)
                    .collect();
                let unique: BTreeSet<&String> = labels.iter().collect();
                assert_eq!(unique.len(), labels.len(), "{} (quick {quick})", e.id);
            }
        }
    }

    const SHARDS: u32 = 8;

    /// Shards that forge their own stamps and finish in reverse order.
    fn forging_jobs(_quick: bool, _suite_seed: u64) -> Vec<ExpJob> {
        (0..SHARDS)
            .map(|k| {
                ExpJob::new(format!("s{k}"), move |ctx| {
                    std::thread::sleep(Duration::from_millis(u64::from(SHARDS - k) * 5));
                    let mut out = JobOutput::default().value("seed", ctx.seed);
                    out.experiment = "forged".into();
                    out.shard = 99;
                    out.label = "forged".into();
                    out
                })
            })
            .collect()
    }

    /// Records the stamps of the outputs it sees, in the order it sees them.
    fn stamps_in_order(outputs: Vec<JobOutput>) -> Report {
        let mut r = Report::new("x", "harness contract");
        for o in &outputs {
            let seed = o.get("seed").cloned().unwrap_or(Value::Bool(false));
            r.value(format!("{}/{}/{}", o.experiment, o.shard, o.label), seed);
        }
        r
    }

    static FORGING: Experiment = Experiment {
        id: "x",
        jobs: forging_jobs,
        reduce: stamps_in_order,
    };

    #[test]
    fn harness_numbers_seeds_stamps_and_orders_shards() {
        let request = RunRequest::new(["x"], true, 7);
        let pool = bcc_runner::Pool::new(4);
        let run =
            request.run_experiments(&[&FORGING], &pool, &bcc_runner::CancellationToken::new());
        let expected: Vec<(String, Value)> = (0..SHARDS)
            .map(|k| (format!("x/{k}/s{k}"), Value::from(job_seed(7, "x", k))))
            .collect();
        assert_eq!(run.reports[0].values, expected);
        let ids: Vec<&str> = run.job_results.iter().map(|r| r.id.as_str()).collect();
        let expected_ids: Vec<String> = (0..SHARDS).map(|k| format!("x/s{k}")).collect();
        assert_eq!(ids, expected_ids);
    }

    #[test]
    fn unknown_id_is_an_error() {
        let err = RunRequest::new(["zzz"], true, 0).run().unwrap_err();
        assert_eq!(err.id, "zzz");
        assert!(err.to_string().contains("unknown experiment"));
    }

    #[test]
    fn unknown_ids_are_rejected_before_running() {
        let err = RunRequest::new(["f1", "nope"], true, 0).run().unwrap_err();
        assert_eq!(err.id, "nope");
    }

    #[test]
    fn multi_id_run_matches_single_id_runs() {
        let both = RunRequest::new(["f1", "e1"], true, DEFAULT_SEED)
            .jobs(2)
            .run()
            .expect("known ids");
        assert_eq!(both.reports.len(), 2);
        for (report, id) in both.reports.iter().zip(["f1", "e1"]) {
            let solo = RunRequest::new([id], true, DEFAULT_SEED)
                .run()
                .expect("known id");
            assert_eq!(report.text, solo.reports[0].text);
        }
        assert_eq!(both.metrics.completed, both.job_results.len() as u64);
    }

    #[test]
    fn repeated_ids_run_once_at_first_position() {
        let once = RunRequest::new(["e1", "f1"], true, DEFAULT_SEED)
            .run()
            .expect("known ids");
        let repeated = RunRequest::new(["e1", "f1", "e1", "f1", "f1"], true, DEFAULT_SEED)
            .run()
            .expect("known ids");
        assert_eq!(repeated.reports, once.reports);
        assert_eq!(repeated.job_results.len(), once.job_results.len());
        assert_eq!(repeated.cache_lookups, once.cache_lookups);
    }

    #[test]
    fn request_builder_is_thread_count_invariant() {
        let serial = RunRequest::new(["f1"], true, DEFAULT_SEED)
            .run()
            .expect("known id");
        let parallel = RunRequest::new(["f1"], true, DEFAULT_SEED)
            .jobs(4)
            .run()
            .expect("known id");
        assert_eq!(serial.reports, parallel.reports);
        assert_eq!(serial.job_results.len(), parallel.job_results.len());
        assert_eq!(serial.cache_lookups, parallel.cache_lookups);
    }
}
