//! Experiment harness: regenerates every figure- and theorem-level
//! data series of the paper (see DESIGN.md §3 for the index, and
//! EXPERIMENTS.md for recorded results).
//!
//! Each experiment module exposes `jobs(quick, seed)` (independent
//! shards with deterministic per-job seeds) and `reduce(outputs)`
//! (order-insensitive assembly into a typed [`job::Report`]), and
//! registers itself in [`REGISTRY`] through the [`Experiment`] trait.
//! The `bcc-experiments` binary dispatches on an experiment id (`f1`,
//! `f2`, `e1`…`e12`, or `all`) and can fan shards out over a
//! `bcc_runner::Pool` — reports are byte-identical at any thread
//! count because every shard's output is a pure function of its seed.

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
use bcc_trace::{Collector, Trace, TraceLevel};
use job::{ExpJob, JobOutput, Report, DEFAULT_SEED};
use std::time::Duration;

/// All experiment ids, in presentation order.
pub const ALL_EXPERIMENTS: [&str; 14] = [
    "f1", "f2", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
];

/// Error for an experiment id outside [`ALL_EXPERIMENTS`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExperiment {
    /// The id that failed to resolve.
    pub id: String,
}

impl std::fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown experiment id {:?} (use one of {ALL_EXPERIMENTS:?})",
            self.id
        )
    }
}

impl std::error::Error for UnknownExperiment {}

/// One experiment series, as the dispatcher sees it: a stable id, a
/// sharded job list, and an order-insensitive reduction.
///
/// Implementations are the unit structs each `exp_*` module exports
/// (`exp_e1_star::E1`, …), collected in [`REGISTRY`]. Adding an
/// experiment means adding a module, implementing this trait, and
/// appending the handle to [`REGISTRY`] and its id to
/// [`ALL_EXPERIMENTS`] — lint rule R1 checks all of that statically.
pub trait Experiment: Sync {
    /// The dispatch id (`"f1"`, `"e1"`, …), unique across [`REGISTRY`].
    fn id(&self) -> &'static str;
    /// Independent job shards; every per-job seed derives from
    /// `suite_seed` so reports are reproducible at any thread count.
    fn jobs(&self, quick: bool, suite_seed: u64) -> Vec<ExpJob>;
    /// Assembles completed shard outputs (any order) into the
    /// experiment's typed report.
    fn reduce(&self, outputs: Vec<JobOutput>) -> Report;
}

/// Every experiment, in presentation order — the single dispatch
/// table behind [`jobs_for`], [`reduce_for`], [`run`], and
/// [`run_suite`].
pub static REGISTRY: [&dyn Experiment; 14] = [
    &exp_f1_crossing::F1,
    &exp_f2_reduction::F2,
    &exp_e1_star::E1,
    &exp_e2_indist::E2,
    &exp_e3_rank::E3,
    &exp_e4_two_party::E4,
    &exp_e5_simulation::E5,
    &exp_e6_info::E6,
    &exp_e7_upper_bounds::E7,
    &exp_e8_sketch::E8,
    &exp_e9_range::E9,
    &exp_e10_lattice::E10,
    &exp_e11_mst::E11,
    &exp_e12_question2::E12,
];

/// Looks an experiment up in [`REGISTRY`] by id.
pub fn experiment(id: &str) -> Result<&'static dyn Experiment, UnknownExperiment> {
    REGISTRY
        .iter()
        .copied()
        .find(|e| e.id() == id)
        .ok_or_else(|| UnknownExperiment { id: id.into() })
}

/// The job list for one experiment.
pub fn jobs_for(id: &str, quick: bool, suite_seed: u64) -> Result<Vec<ExpJob>, UnknownExperiment> {
    experiment(id).map(|e| e.jobs(quick, suite_seed))
}

/// Reduces one experiment's job outputs into its typed report.
pub fn reduce_for(id: &str, outputs: Vec<JobOutput>) -> Result<Report, UnknownExperiment> {
    experiment(id).map(|e| e.reduce(outputs))
}

/// Options for a parallel suite run.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Trim instance sizes (`--quick`).
    pub quick: bool,
    /// Worker threads (`--jobs`); 1 selects the serial fast path.
    pub threads: usize,
    /// Suite seed every per-job seed is derived from (`--seed`).
    pub seed: u64,
    /// Optional per-job wall-clock deadline (`--timeout-secs`).
    pub timeout: Option<Duration>,
    /// Trace recording level (`--trace-level`); `Off` disables
    /// collection entirely and costs nothing per job.
    pub trace_level: TraceLevel,
    /// Workload-metrics recording level (`--metrics-level`); `Off`
    /// disables collection entirely and costs nothing per job. Only
    /// logical quantities are counted (bits, rounds, lookups — never
    /// clock readings), so the merged dump is byte-identical at any
    /// thread count.
    pub metrics_level: MetricsLevel,
    /// Optional on-disk artifact cache directory (`--cache`); `None`
    /// keeps the process-wide store in memory. Cached or not, reports
    /// are byte-identical — the store only trades recomputation for
    /// lookups (see [`cache`]).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Transport backend to install process-wide before running
    /// (`--transport`); `None` leaves whatever is installed (the
    /// in-process `local` backend by default). Reports, traces, and
    /// metrics dumps are byte-identical across backends — that is the
    /// transport determinism contract (DESIGN.md §14).
    pub transport: Option<bcc_model::TransportSpec>,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        SuiteOptions {
            quick: false,
            threads: 1,
            seed: DEFAULT_SEED,
            timeout: None,
            trace_level: TraceLevel::Off,
            metrics_level: MetricsLevel::Off,
            cache_dir: None,
            transport: None,
        }
    }
}

/// The result of a suite run: per-experiment reports in request
/// order, the raw per-job results (submission order), and the pool's
/// metrics snapshot.
#[derive(Debug)]
pub struct SuiteRun {
    /// One reduced report per requested experiment, in request order.
    pub reports: Vec<Report>,
    /// Every job's structured result, in submission order.
    pub job_results: Vec<bcc_runner::JobResult<JobOutput>>,
    /// Scheduler counters and latency histogram for the whole run.
    pub metrics: bcc_runner::MetricsSnapshot,
    /// The merged trace — empty unless `trace_level > Off`. Merged by
    /// `(unit, seq)`, so it is byte-identical at any thread count, and
    /// collecting it never changes a report byte.
    pub trace: Trace,
    /// The merged deterministic workload-metrics dump — empty unless
    /// `metrics_level > Off`. Counters and histograms merge
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

/// One registry-dispatched run request — the single entry point for
/// running an experiment. The request is fully described by logical
/// parameters, so the reduced report is a pure function of
/// `(id, quick, seed)`; everything else (threads, cache, observers,
/// transport) only changes *how* it is computed.
///
/// ```no_run
/// use bcc_experiments::RunRequest;
/// use bcc_model::TransportSpec;
/// let run = RunRequest::new("e2", true, 42)
///     .jobs(4)
///     .cache("/tmp/bcc-cache")
///     .transport(TransportSpec::Sockets(2))
///     .run()
///     .expect("known id");
/// println!("{}", run.report.text);
/// ```
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Experiment id (`"e2"`, …).
    pub id: String,
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
    /// A request with the given id, profile, and seed; single-threaded,
    /// uncached, unobserved, on the process-default transport.
    pub fn new(id: impl Into<String>, quick: bool, seed: u64) -> Self {
        RunRequest {
            id: id.into(),
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
    /// before running (see [`cache::configure_disk`]).
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
    /// (both are `Arc`-backed handles; the caller finishes them).
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
    /// is not stomped by per-request submissions.
    #[must_use]
    pub fn transport(mut self, spec: bcc_model::TransportSpec) -> Self {
        self.transport = Some(spec);
        self
    }

    /// Runs on a freshly created pool with
    /// [`jobs`](Self::jobs)-many threads.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownExperiment`] for an id outside the registry.
    pub fn run(&self) -> Result<PoolRun, UnknownExperiment> {
        let pool = bcc_runner::Pool::new(self.threads);
        self.run_on_pool(&pool, &bcc_runner::CancellationToken::new())
    }

    /// Runs on a caller-owned pool — the registry-driven submission
    /// path a long-lived service schedules through. The pool and
    /// cancellation token outlive the request, so repeat submissions
    /// share one warm process-wide [`cache`] store and (via
    /// [`observed`](Self::observed)) one merged observability stream.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownExperiment`] for an id outside the registry;
    /// admission layers should reject such requests without
    /// scheduling.
    pub fn run_on_pool(
        &self,
        pool: &bcc_runner::Pool,
        token: &bcc_runner::CancellationToken,
    ) -> Result<PoolRun, UnknownExperiment> {
        if let Some(spec) = self.transport {
            bcc_transport::install(spec);
        }
        if let Some(dir) = &self.cache_dir {
            cache::configure_disk(dir.clone());
        }
        let jobs = jobs_for(&self.id, self.quick, self.seed)?;
        let runner_jobs: Vec<bcc_runner::Job<JobOutput>> = jobs
            .into_iter()
            .map(|j| j.into_runner_job(self.timeout))
            .collect();
        // Disabled sinks cost nothing; using them for unobserved
        // requests keeps one submission path instead of two.
        let off_collector;
        let collector = match &self.collector {
            Some(c) => c,
            None => {
                off_collector = Collector::new(TraceLevel::Off);
                &off_collector
            }
        };
        let off_hub;
        let hub = match &self.hub {
            Some(h) => h,
            None => {
                off_hub = MetricsHub::new(MetricsLevel::Off);
                &off_hub
            }
        };
        let results = pool.execute_observed(runner_jobs, token, collector, hub);
        let scheduled = results.len();
        let cancelled = results
            .iter()
            .filter(|r| matches!(r.status, bcc_runner::JobStatus::Cancelled))
            .count();
        let outputs: Vec<JobOutput> = results
            .into_iter()
            .filter_map(|r| r.status.into_output())
            .collect();
        let completed = outputs.len();
        let report = degrade_partial(reduce_for(&self.id, outputs)?, completed, scheduled);
        Ok(PoolRun {
            report,
            scheduled,
            completed,
            cancelled,
        })
    }
}

/// The outcome of [`RunRequest::run_on_pool`]: the reduced (possibly degraded)
/// report plus the shard accounting a scheduler needs for its own
/// bookkeeping.
#[derive(Debug)]
pub struct PoolRun {
    /// The reduced report (partial-shard loss already surfaced).
    pub report: Report,
    /// Shards scheduled for this request.
    pub scheduled: usize,
    /// Shards that completed with an output.
    pub completed: usize,
    /// Shards reported cancelled (drain, token, or deadline path).
    pub cancelled: usize,
}

/// Runs a set of experiments through one shared pool.
///
/// All shards of all requested experiments are flattened into a
/// single job list so the pool can balance across experiments; the
/// completed outputs are regrouped by experiment id and reduced in
/// request order. Shards that failed or timed out simply contribute
/// no output (the report's checks will reflect the gap).
pub fn run_suite(ids: &[&str], opts: &SuiteOptions) -> Result<SuiteRun, UnknownExperiment> {
    if let Some(spec) = opts.transport {
        bcc_transport::install(spec);
    }
    if let Some(dir) = &opts.cache_dir {
        cache::configure_disk(dir.clone());
    }
    let mut flat: Vec<ExpJob> = Vec::new();
    for id in ids {
        flat.extend(jobs_for(id, opts.quick, opts.seed)?);
    }
    let runner_jobs: Vec<bcc_runner::Job<JobOutput>> = flat
        .into_iter()
        .map(|j| j.into_runner_job(opts.timeout))
        .collect();
    let pool = bcc_runner::Pool::new(opts.threads);
    let collector = Collector::new(opts.trace_level);
    let hub = MetricsHub::new(opts.metrics_level);
    let store = cache::store();
    let lookups_before = store.lookups();
    let job_results = pool.execute_observed(
        runner_jobs,
        &bcc_runner::CancellationToken::new(),
        &collector,
        &hub,
    );
    let suite_lookups = store.lookups() - lookups_before;
    if hub.enabled() {
        // Suite-level unit: workload shape plus the cache *lookup*
        // count. Lookups (hits + misses) are a pure function of the
        // job list, unlike the hit/miss split, which depends on
        // interleaving and on what earlier runs left in the shared
        // store — so only the deterministic quantity goes in the dump.
        let mut buf = hub.buf("suite");
        buf.counter("suite.experiments", ids.len() as u64);
        buf.counter("suite.jobs", job_results.len() as u64);
        buf.counter("cache.lookups", suite_lookups);
        hub.absorb(buf);
    }
    if collector.enabled() {
        // Mirror the suite-scope costs into the trace under the same
        // canonical names, so the profiler can attribute them (they
        // land at the suite unit's floor, outside any span).
        let mut tbuf = collector.buf("suite");
        tbuf.counter("suite.experiments", ids.len() as u64);
        tbuf.counter("suite.jobs", job_results.len() as u64);
        tbuf.counter("cache.lookups", suite_lookups);
        collector.absorb(tbuf);
    }
    // Drain worker-shipped transport telemetry into the same sinks
    // before they finish — a no-op on the local backend, which never
    // accumulates any (DESIGN.md §15). Sessions are rank-ordered and
    // canonically sorted on the way in, so the flushed units are
    // byte-identical at any thread count.
    bcc_model::transport::default_factory().flush_telemetry(&collector, &hub);

    let mut reports = Vec::with_capacity(ids.len());
    for id in ids {
        let outputs: Vec<JobOutput> = job_results
            .iter()
            .filter_map(|r| r.status.output())
            .filter(|o| o.experiment == *id)
            .cloned()
            .collect();
        let scheduled = job_results
            .iter()
            .filter(|r| r.id.starts_with(&format!("{id}/")))
            .count();
        let completed = outputs.len();
        let report = degrade_partial(reduce_for(id, outputs)?, completed, scheduled);
        reports.push(report);
    }
    Ok(SuiteRun {
        reports,
        job_results,
        metrics: pool.metrics().snapshot(),
        trace: collector.finish(),
        workload: hub.finish(),
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn registry_ids_match_all_experiments_in_order() {
        let ids: Vec<&str> = super::REGISTRY.iter().map(|e| e.id()).collect();
        assert_eq!(ids, super::ALL_EXPERIMENTS);
    }

    #[test]
    fn experiment_lookup_resolves_every_id() {
        for id in super::ALL_EXPERIMENTS {
            assert_eq!(super::experiment(id).map(|e| e.id()), Ok(id));
        }
        assert!(super::experiment("zzz").is_err());
    }

    #[test]
    fn unknown_id_is_an_error() {
        let err = super::RunRequest::new("zzz", true, 0).run().unwrap_err();
        assert_eq!(err.id, "zzz");
        assert!(err.to_string().contains("unknown experiment"));
    }

    #[test]
    fn suite_rejects_unknown_ids_before_running() {
        let err = super::run_suite(&["f1", "nope"], &super::SuiteOptions::default()).unwrap_err();
        assert_eq!(err.id, "nope");
    }

    #[test]
    fn suite_run_matches_serial_report() {
        let opts = super::SuiteOptions {
            quick: true,
            threads: 2,
            ..Default::default()
        };
        let suite = super::run_suite(&["f1"], &opts).expect("known id");
        assert_eq!(suite.reports.len(), 1);
        let serial = super::RunRequest::new("f1", true, super::DEFAULT_SEED)
            .run()
            .expect("known id");
        assert_eq!(suite.reports[0].text, serial.report.text);
        assert_eq!(suite.metrics.completed, suite.job_results.len() as u64);
    }

    #[test]
    fn request_builder_is_thread_count_invariant() {
        let serial = super::RunRequest::new("f1", true, super::DEFAULT_SEED)
            .run()
            .expect("known id");
        let parallel = super::RunRequest::new("f1", true, super::DEFAULT_SEED)
            .jobs(4)
            .run()
            .expect("known id");
        assert_eq!(serial.report.text, parallel.report.text);
        assert_eq!(serial.scheduled, parallel.scheduled);
        assert_eq!(serial.completed, parallel.completed);
    }
}
