//! Runner bench: 1-thread vs N-thread throughput of the work-stealing
//! pool on real experiment kernels (E2 structure rows, E3 rank rows).
//!
//! On a single-core host the thread counts tie (the pool's serial
//! fast path vs scheduling overhead); on multi-core hosts the N-thread
//! rows show the speedup the CLI's `--jobs` flag buys.

use bcc_experiments::job::ExpJob;
use bcc_experiments::{exp_e2_indist, exp_e3_rank};
use bcc_metrics::MetricsHub;
use bcc_runner::{CancellationToken, Pool};
use bcc_trace::Collector;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Runs experiment shards on a fresh `threads`-wide pool, unobserved;
/// returns the result count so the work is observably used.
fn execute(threads: usize, jobs: Vec<ExpJob>) -> usize {
    let jobs = jobs.into_iter().map(|j| j.into_runner_job(None)).collect();
    Pool::new(threads)
        .execute(
            jobs,
            &CancellationToken::new(),
            &Collector::disabled(),
            &MetricsHub::disabled(),
        )
        .len()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("runner");
    group.sample_size(10);

    let host = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let thread_counts: Vec<usize> = [1usize, 2, host.max(4)]
        .into_iter()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();

    // E2 kernel: per-n structure rows (lattice walks + census).
    for &threads in &thread_counts {
        group.bench_with_input(
            BenchmarkId::new("e2_structure_jobs", threads),
            &threads,
            |b, &threads| b.iter(|| execute(threads, exp_e2_indist::jobs(true, 2024))),
        );
    }

    // E3 kernel: GF(p) rank of M_n / E_n shards.
    for &threads in &thread_counts {
        group.bench_with_input(
            BenchmarkId::new("e3_rank_jobs", threads),
            &threads,
            |b, &threads| b.iter(|| execute(threads, exp_e3_rank::jobs(true, 2024))),
        );
    }

    // Baseline: the same E3 shards run inline on the calling thread,
    // without any pool machinery.
    group.bench_function("e3_rank_jobs_inline", |b| {
        b.iter(|| {
            exp_e3_rank::jobs(true, 2024)
                .into_iter()
                .map(|j| j.into_runner_job(None).run_inline())
                .collect::<Vec<_>>()
                .len()
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
