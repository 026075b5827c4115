//! The daemon core: one shared [`bcc_runner::Pool`], one warm
//! process-wide artifact store, one scheduler thread, and the results
//! table connections await on.
//!
//! The scheduler runs admitted requests **one at a time** in
//! admission order (priority, then FIFO): repeat queries hit the warm
//! store, and every byte a request produces — its `result` line, its
//! `serve.*` metrics, its request span — is a pure function of the
//! admission sequence, never of connection interleaving. Concurrency
//! lives *inside* a request (the pool runs its shards in parallel), not across
//! requests.
//!
//! This module is clock-free (lint rule D2): deadlines are delegated
//! to the runner, the drain watchdog lives in [`crate::net`], and
//! `retry_after_ticks` is logical.

use crate::admission::{Admission, CancelOutcome, Popped, Ticket};
use crate::proto::{Reject, ResultMsg, ResultStatus, StatsMsg, SubmitReq};
use bcc_experiments::{cache, RunRequest};
use bcc_metrics::{MetricsHub, MetricsLevel};
use bcc_runner::{CancellationToken, Pool};
use bcc_trace::{field, Collector, TraceLevel};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Daemon configuration; every knob has a service-shaped default.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Pool worker threads per request.
    pub threads: usize,
    /// Admission queue capacity.
    pub queue_cap: u64,
    /// Per-client outstanding-request quota.
    pub quota: u64,
    /// Seed used when a submit carries none.
    pub default_seed: u64,
    /// Metrics recording level.
    pub metrics_level: MetricsLevel,
    /// Trace recording level.
    pub trace_level: TraceLevel,
    /// Where the merged metrics dump is flushed at drain.
    pub metrics_path: Option<PathBuf>,
    /// Where the merged trace is flushed at drain.
    pub trace_path: Option<PathBuf>,
    /// Longest accepted request line, in bytes.
    pub max_line_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 2,
            queue_cap: 16,
            quota: 8,
            default_seed: 2024,
            metrics_level: MetricsLevel::Core,
            trace_level: TraceLevel::Off,
            metrics_path: None,
            trace_path: None,
            max_line_bytes: 64 * 1024,
        }
    }
}

/// Server-wide live counters (the `stats` reply). Plain atomics:
/// deterministic dumps come from the [`MetricsHub`], these exist for
/// live introspection.
#[derive(Debug, Default)]
struct LiveStats {
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    drained: AtomicU64,
}

#[derive(Debug, Default)]
struct ResultsState {
    /// Accepted but not yet finished.
    pending: BTreeSet<u64>,
    /// Finished, rendered, not yet delivered.
    ready: BTreeMap<u64, ResultMsg>,
}

/// Blocking results table: `post` fulfills, `take` awaits.
#[derive(Debug, Default)]
struct Results {
    state: Mutex<ResultsState>,
    fulfilled: Condvar,
}

impl Results {
    fn lock(&self) -> MutexGuard<'_, ResultsState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn register(&self, req: u64) {
        self.lock().pending.insert(req);
    }

    fn post(&self, msg: ResultMsg) {
        let mut st = self.lock();
        st.pending.remove(&msg.req);
        st.ready.insert(msg.req, msg);
        drop(st);
        self.fulfilled.notify_all();
    }

    /// Blocks until `req` finishes; `None` when the id was never
    /// accepted or its result was already delivered.
    fn take(&self, req: u64) -> Option<ResultMsg> {
        let mut st = self.lock();
        loop {
            if let Some(msg) = st.ready.remove(&req) {
                return Some(msg);
            }
            if !st.pending.contains(&req) {
                return None;
            }
            st = self.fulfilled.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Drops an undelivered result, if any.
    fn forget(&self, req: u64) {
        self.lock().ready.remove(&req);
    }

    /// `done` when the request finished (delivered or not), `pending`
    /// while queued/running, `unknown` otherwise.
    fn status(&self, req: u64) -> &'static str {
        let st = self.lock();
        if st.ready.contains_key(&req) {
            "done"
        } else if st.pending.contains(&req) {
            "pending"
        } else {
            "unknown"
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DrainPhase {
    Running,
    Draining,
    Done(u64),
}

/// The shared daemon state. Construct with [`Server::start`], which
/// also spawns the scheduler thread.
pub struct Server {
    config: ServerConfig,
    pool: Pool,
    hub: MetricsHub,
    collector: Collector,
    admission: Admission,
    results: Results,
    running: Mutex<BTreeMap<u64, CancellationToken>>,
    stats: LiveStats,
    drain_phase: Mutex<DrainPhase>,
    drain_done_cv: Condvar,
    scheduler: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Logical clock for observers: one tick per request reaching a
    /// terminal state (completed or cancelled-from-queue). `observe`
    /// streams are keyed to this counter, never to wall-clock.
    ticks: Mutex<u64>,
    tick_cv: Condvar,
}

impl Server {
    /// Builds the server and spawns its scheduler thread.
    pub fn start(config: ServerConfig) -> Arc<Server> {
        let server = Arc::new(Server {
            pool: Pool::new(config.threads.max(1)),
            hub: MetricsHub::new(config.metrics_level),
            collector: Collector::new(config.trace_level),
            admission: Admission::new(config.queue_cap, config.quota),
            results: Results::default(),
            running: Mutex::new(BTreeMap::new()),
            stats: LiveStats::default(),
            drain_phase: Mutex::new(DrainPhase::Running),
            drain_done_cv: Condvar::new(),
            scheduler: Mutex::new(None),
            ticks: Mutex::new(0),
            tick_cv: Condvar::new(),
            config,
        });
        let worker = Arc::clone(&server);
        if let Ok(handle) = std::thread::Builder::new()
            .name("bcc-serve-sched".to_string())
            .spawn(move || worker.scheduler_loop())
        {
            *server.scheduler.lock().unwrap_or_else(|e| e.into_inner()) = Some(handle);
        }
        server
    }

    /// The daemon configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Admits a batch of submits under one admission-lock hold.
    /// Registry validation happens here: unknown ids are rejected in
    /// place and never consume a queue slot. Per-slot outcomes keep
    /// the input order.
    pub fn admit(
        &self,
        client: &str,
        submits: Vec<SubmitReq>,
    ) -> Vec<Result<crate::admission::Accepted, Reject>> {
        let mut validated: Vec<Result<SubmitReq, Reject>> = Vec::with_capacity(submits.len());
        let mut runnable = Vec::new();
        for s in submits {
            if bcc_experiments::experiment(&s.experiment).is_err() {
                validated.push(Err(Reject::UnknownExperiment {
                    id: s.experiment.clone(),
                }));
            } else {
                validated.push(Ok(s.clone()));
                runnable.push(s);
            }
        }
        let mut admitted = self.admission.submit_batch(client, runnable).into_iter();
        let mut out = Vec::with_capacity(validated.len());
        for slot in validated {
            match slot {
                Err(reject) => out.push(Err(reject)),
                Ok(_) => match admitted.next() {
                    Some(Ok(acc)) => {
                        self.results.register(acc.req);
                        self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                        out.push(Ok(acc));
                    }
                    Some(Err(reject)) => out.push(Err(reject)),
                    // submit_batch returns one outcome per input;
                    // running dry would mean a counting bug upstream.
                    None => out.push(Err(Reject::Draining)),
                },
            }
        }
        for slot in &out {
            if slot.is_err() {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }

    /// Blocks until `req` finishes, then hands its result out
    /// (exactly once).
    pub fn await_result(&self, req: u64) -> Option<ResultMsg> {
        self.results.take(req)
    }

    /// Disconnect path: cancels an abandoned request and drops any
    /// result it already produced, so a vanished client leaks neither
    /// queue slots nor table entries.
    pub fn release_abandoned(&self, req: u64) {
        self.cancel(req);
        self.results.forget(req);
    }

    /// Cancels a request: removes it from the queue, or flips the
    /// cooperative token when it is already running.
    pub fn cancel(&self, req: u64) -> &'static str {
        match self.admission.cancel(req) {
            CancelOutcome::Queued(ticket) => {
                self.stats.cancelled.fetch_add(1, Ordering::Relaxed);
                let mut mbuf = self.hub.buf("serve/sched");
                mbuf.counter("serve.cancelled", 1);
                self.hub.absorb(mbuf);
                self.results.post(ResultMsg {
                    req: ticket.req,
                    experiment: ticket.submit.experiment,
                    status: ResultStatus::Cancelled,
                    passed: None,
                    scheduled: 0,
                    completed: 0,
                    cancelled: 0,
                    cache_lookups: 0,
                    report_json: None,
                });
                self.bump_tick();
                "cancelled"
            }
            CancelOutcome::NotQueued => {
                let running = self.running.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(token) = running.get(&req) {
                    token.cancel();
                    return "cancelled";
                }
                drop(running);
                match self.results.status(req) {
                    "done" | "pending" => "done",
                    _ => "unknown",
                }
            }
        }
    }

    /// Advances the logical clock and wakes every observer.
    fn bump_tick(&self) {
        let mut ticks = self.ticks.lock().unwrap_or_else(|e| e.into_inner());
        *ticks += 1;
        drop(ticks);
        self.tick_cv.notify_all();
    }

    /// The current logical tick (requests that reached a terminal
    /// state so far).
    pub fn tick(&self) -> u64 {
        *self.ticks.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until the logical clock passes `after`, returning the
    /// new tick — or `None` once the server is draining and no
    /// further tick will come, so observers terminate instead of
    /// hanging the drain.
    pub fn wait_tick(&self, after: u64) -> Option<u64> {
        let mut ticks = self.ticks.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if *ticks > after {
                return Some(*ticks);
            }
            if self.admission.is_draining() {
                return None;
            }
            ticks = self.tick_cv.wait(ticks).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A live stats snapshot.
    pub fn stats(&self) -> StatsMsg {
        let store = cache::store();
        // bcc-lint: allow(G1): the live `stats` reply reports the daemon-wide cache totals by design; no trace or metrics dump reads them
        let (cache_lookups, cache_hits) = (store.lookups(), store.hits());
        StatsMsg {
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            cancelled: self.stats.cancelled.load(Ordering::Relaxed),
            drained: self.stats.drained.load(Ordering::Relaxed),
            queue_depth: self.admission.depth(),
            draining: self.admission.is_draining(),
            cache_lookups,
            cache_hits,
            cache_entries: store.entries(),
        }
    }

    /// The metrics hub (for per-connection `serve.*` counters).
    pub fn hub(&self) -> &MetricsHub {
        &self.hub
    }

    /// Graceful drain: refuse new work, finish everything admitted,
    /// join the scheduler (the pool's only caller, so no batch is left
    /// running), flush metrics/trace dumps. Idempotent; every
    /// caller blocks until the first caller's drain completes and
    /// gets the same drained count back.
    pub fn drain(&self) -> u64 {
        {
            let mut phase = self.drain_phase.lock().unwrap_or_else(|e| e.into_inner());
            match *phase {
                DrainPhase::Done(n) => return n,
                DrainPhase::Draining => loop {
                    phase = self
                        .drain_done_cv
                        .wait(phase)
                        .unwrap_or_else(|e| e.into_inner());
                    if let DrainPhase::Done(n) = *phase {
                        return n;
                    }
                },
                DrainPhase::Running => *phase = DrainPhase::Draining,
            }
        }
        let drained = self.admission.begin_drain();
        // Wake observers so they see the drain and terminate their
        // streams instead of outliving the daemon.
        self.tick_cv.notify_all();
        self.stats.drained.store(drained, Ordering::Relaxed);
        let mut mbuf = self.hub.buf("serve/sched");
        mbuf.counter("serve.drained", drained);
        self.hub.absorb(mbuf);
        let handle = self
            .scheduler
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        if let Err(err) = self.flush_dumps() {
            eprintln!("bcc-serve: flush failed: {err}");
        }
        let mut phase = self.drain_phase.lock().unwrap_or_else(|e| e.into_inner());
        *phase = DrainPhase::Done(drained);
        drop(phase);
        self.drain_done_cv.notify_all();
        drained
    }

    /// Whether drain has fully completed (queue empty, dumps
    /// flushed). The accept loop exits on this.
    pub fn drain_done(&self) -> bool {
        matches!(
            *self.drain_phase.lock().unwrap_or_else(|e| e.into_inner()),
            DrainPhase::Done(_)
        )
    }

    fn flush_dumps(&self) -> std::io::Result<()> {
        // Drain the transport's per-worker telemetry (a no-op on the
        // local backend) before the sinks finish, so daemon dumps
        // carry the same rank-ordered transport.* family as batch
        // runs (DESIGN.md §15).
        bcc_model::transport::default_factory().flush_telemetry(&self.collector, &self.hub);
        if let Some(path) = &self.config.metrics_path {
            let file = std::fs::File::create(path)?;
            let mut w = std::io::BufWriter::new(file);
            self.hub.finish().write_jsonl(&mut w)?;
            std::io::Write::flush(&mut w)?;
        }
        if let Some(path) = &self.config.trace_path {
            let file = std::fs::File::create(path)?;
            let mut w = std::io::BufWriter::new(file);
            self.collector.finish().write_jsonl(&mut w)?;
            std::io::Write::flush(&mut w)?;
        }
        Ok(())
    }

    fn scheduler_loop(&self) {
        loop {
            match self.admission.pop() {
                Popped::Ticket(ticket) => self.run_one(ticket),
                Popped::Drained => return,
            }
        }
    }

    /// Runs one admitted request to its terminal state. Sequential by
    /// construction: the next pop happens only after this returns, so
    /// queue-depth samples are deterministic. Cache lookups are counted
    /// per job by the run itself, so they stay exact whatever else
    /// shares the process-wide store.
    fn run_one(&self, ticket: Ticket) {
        self.running
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(ticket.req, ticket.token.clone());
        let seed = ticket.submit.seed.unwrap_or(self.config.default_seed);
        // Observers are the daemon's own collector/hub; the transport
        // is deliberately left unset so requests run on whatever the
        // daemon installed at startup (`--transport`).
        let mut request = RunRequest::new(
            [ticket.submit.experiment.as_str()],
            ticket.submit.quick,
            seed,
        )
        .observed(self.collector.clone(), self.hub.clone());
        request.timeout = ticket.submit.timeout_secs.map(Duration::from_secs);

        let mut tbuf = self.collector.buf(format!("serve/req={:06}", ticket.req));
        tbuf.span_start(
            "serve.request",
            vec![
                field("req", ticket.req),
                field("client", ticket.client.as_str()),
                field("experiment", ticket.submit.experiment.as_str()),
                field("seed", seed),
                field("priority", ticket.submit.priority),
                field("quick", ticket.submit.quick),
            ],
        );
        let outcome = request.run_on_pool(&self.pool, &ticket.token);

        let msg = match outcome {
            Ok(run) => {
                let m = &run.metrics;
                let report = &run.reports[0];
                tbuf.span_end(
                    "serve.request",
                    vec![
                        field("scheduled", m.scheduled),
                        field("completed", m.completed),
                        field("cancelled", m.cancelled),
                        field("passed", report.passed),
                    ],
                );
                ResultMsg {
                    req: ticket.req,
                    experiment: ticket.submit.experiment.clone(),
                    status: ResultStatus::Done,
                    passed: Some(report.passed),
                    scheduled: m.scheduled,
                    completed: m.completed,
                    cancelled: m.cancelled,
                    cache_lookups: run.cache_lookups,
                    report_json: Some(report.to_json()),
                }
            }
            // Unreachable in practice: ids are validated at admission.
            Err(_) => {
                tbuf.span_end("serve.request", vec![field("passed", false)]);
                ResultMsg {
                    req: ticket.req,
                    experiment: ticket.submit.experiment.clone(),
                    status: ResultStatus::Cancelled,
                    passed: None,
                    scheduled: 0,
                    completed: 0,
                    cancelled: 0,
                    cache_lookups: 0,
                    report_json: None,
                }
            }
        };
        self.collector.absorb(tbuf);
        let mut mbuf = self.hub.buf("serve/sched");
        mbuf.counter("serve.completed", 1);
        mbuf.counter("cache.lookups", msg.cache_lookups);
        self.hub.absorb(mbuf);
        self.stats.completed.fetch_add(1, Ordering::Relaxed);

        self.running
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&ticket.req);
        self.results.post(msg);
        self.admission.finish(&ticket.client);
        self.bump_tick();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.config)
            .field("queue_depth", &self.admission.depth())
            .finish()
    }
}
