//! Tests of the benchmark's own helpers: the percentile rule and the
//! transparency of the storage timing decorator.

use hsbench::stats::{
    median, nearest_rank, percentile, segment_medians, segment_walls, tail_percentile,
};
use hsbench::timed::{Op, TimedStorage};
use hsbench::workload::{prepare, run, Outcome, Spec, Workload};
use hstorage_cache::{StorageConfig, StorageConfigKind, StorageSystem};
use hstorage_storage::{BlockRange, ClassifiedRequest, IoRequest, QosPolicy, RequestClass};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn tail_is_the_highest_ladder_percentile_with_ten_samples_beyond() {
    // p99 of 12,800 samples is rank 12,672: 128 samples beyond it.
    assert_eq!(tail_percentile(12_800), Some(99.0));
    // Rank 990 of 1,000 leaves exactly ten beyond; of 999 it leaves nine.
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(999), Some(95.0));
    // Two throughput rounds: 144 queries, p90 at rank 130.
    assert_eq!(tail_percentile(144), Some(90.0));
    // One power test: 24 queries, only the median qualifies.
    assert_eq!(tail_percentile(24), Some(50.0));
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(0), None);
}

#[test]
fn nearest_rank_percentiles_and_medians() {
    let samples: Vec<u64> = (1..=100).rev().collect();
    assert_eq!(nearest_rank(99.0, 100), 99);
    assert_eq!(percentile(&samples, 50.0), Some(50));
    assert_eq!(percentile(&samples, 99.0), Some(99));
    assert_eq!(percentile(&samples, 100.0), Some(100));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

fn ms(values: &[u64]) -> Vec<Duration> {
    values.iter().map(|&v| Duration::from_millis(v)).collect()
}

#[test]
fn segments_cut_completions_into_equal_runs() {
    // Seven completions in three segments of three, three and one.
    let completed_at = ms(&[1, 2, 4, 7, 8, 9, 15]);
    assert_eq!(segment_walls(&completed_at, 3), ms(&[4, 5, 6]));
    // One segment is the whole repetition; more segments than queries
    // give one segment per query.
    assert_eq!(segment_walls(&completed_at, 1), ms(&[15]));
    assert_eq!(
        segment_walls(&completed_at, 100),
        ms(&[1, 1, 2, 3, 1, 1, 6])
    );
    assert_eq!(segment_walls(&[], 3), ms(&[]));
    assert_eq!(segment_walls(&completed_at, 0), ms(&[]));
}

#[test]
fn segment_medians_sum_each_segment_median_over_repetitions() {
    let reps = [
        vec![4.0, 9.0, 3.0],
        vec![6.0, 5.0, 3.0],
        vec![5.0, 7.0, 2.0],
    ];
    assert_eq!(segment_medians(&reps), Some(5.0 + 7.0 + 3.0));
    // One segment: the median whole repetition.
    assert_eq!(
        segment_medians(&[vec![16.0], vec![14.0], vec![15.0], vec![13.0]]),
        Some(14.5)
    );
    assert_eq!(segment_medians(&[]), None);
    assert_eq!(segment_medians(&[vec![]]), None);
    assert_eq!(segment_medians(&[vec![1.0, 2.0], vec![1.0]]), None);
}

#[test]
fn the_probe_reads_a_plausible_step_time() {
    let step = hsbench::probe::step_ns();
    assert!(step.is_finite() && step > 0.1 && step < 100_000.0, "{step}");
}

fn tiny(workload: Workload) -> Spec {
    Spec {
        scale: 0.01,
        rounds: 1,
        streams: 4,
        queries_per_stream: 25,
        workers: if workload == Workload::Throughput {
            2
        } else {
            1
        },
        ..Spec::standard(workload, 1)
    }
}

fn outcome(spec: &Spec, traced: bool) -> Outcome {
    let outcome = run(prepare(spec, 7), traced);
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    assert_eq!(outcome.failed, 0);
    outcome
}

fn assert_transparent(workload: Workload) -> Outcome {
    let spec = tiny(workload);
    let plain = outcome(&spec, false);
    let traced = outcome(&spec, true);
    assert_eq!(plain.sim, traced.sim);
    assert_eq!(plain.cache, traced.cache);
    assert_eq!(plain.resident, traced.resident);
    assert_eq!(plain.latencies_ns, traced.latencies_ns);
    // One completion time per query, in order, within the window.
    assert_eq!(plain.completed_at.len(), plain.latencies_ns.len());
    assert!(plain.completed_at.windows(2).all(|w| w[0] <= w[1]));
    assert!(plain.completed_at.last() <= Some(&plain.wall));
    assert!(plain.storage_trace.is_none());
    traced
}

#[test]
fn tracing_leaves_the_power_test_bit_identical() {
    let traced = assert_transparent(Workload::Power);
    let trace = traced.storage_trace.expect("traced run");
    // The executor pulses once per query: RF1, Q1-Q22, RF2.
    assert_eq!(trace.op(Op::MigrateIdle).calls, 24);
    assert!(trace.op(Op::SubmitBatch).calls > 0);
    assert!(trace.batched_requests >= trace.op(Op::SubmitBatch).calls);
    assert!(trace.op(Op::Submit).calls > 0);
    assert!(traced.compile.expect("traced run").programs == 24);
}

#[test]
fn tracing_leaves_oltp_bit_identical_and_recovery_converges() {
    let traced = assert_transparent(Workload::Oltp);
    assert_eq!(traced.attempted, 100);
    assert_eq!(traced.latencies_ns.len(), 100);
    assert!(traced.journal_len > 0);
    assert!(traced.journal_replay.is_some());
    let service = traced.service.expect("traced service run");
    assert_eq!(service.submits, 100);
    assert_eq!(service.per_worker_completed, vec![100]);
}

#[test]
fn throughput_completes_every_query_once_with_two_workers() {
    let traced = outcome(&tiny(Workload::Throughput), true);
    // Three query streams of 22 queries plus three RF1/RF2 pairs.
    assert_eq!(traced.attempted, 72);
    assert_eq!(traced.latencies_ns.len(), 72);
    let service = traced.service.expect("traced service run");
    assert_eq!(service.per_worker_completed.iter().sum::<u64>(), 72);
}

fn scan(i: u64) -> ClassifiedRequest {
    ClassifiedRequest::new(
        IoRequest::read(BlockRange::new(i, 1), true),
        RequestClass::Sequential,
        QosPolicy::NonCachingNonEviction,
    )
}

#[test]
fn batches_reach_the_inner_batch_path() {
    // With a deep device queue the batch path merges adjacent transfers,
    // so its simulated time differs from per-request submission; the
    // decorator must take the batch path, not the trait's default loop.
    let build = || {
        StorageConfig::new(StorageConfigKind::HStorageDb, 1024)
            .with_queue_depth(32)
            .build_shared()
    };
    let batch: Vec<ClassifiedRequest> = (0..64).map(scan).collect();

    let direct = build();
    direct.submit_batch(batch.clone());
    let looped = build();
    batch.iter().cloned().for_each(|r| looped.submit(r));
    assert_ne!(
        direct.now(),
        looped.now(),
        "the test must tell the paths apart"
    );

    let timed = TimedStorage::new(build());
    timed.submit_batch(batch);
    assert_eq!(timed.now(), direct.now());
    assert_eq!(timed.stats(), direct.stats());
    let trace = timed.trace();
    assert_eq!(trace.op(Op::SubmitBatch).calls, 1);
    assert_eq!(trace.batched_requests, 64);
    assert_eq!(trace.op(Op::Submit).calls, 0);
}

#[test]
fn executor_gaps_skip_the_query_boundary() {
    let timed = TimedStorage::new(Arc::from(
        StorageConfig::new(StorageConfigKind::HStorageDb, 64).build(),
    ));
    // A pulse ends a query, so the wait before the next call is not
    // executor time; nothing has run between storage calls yet.
    timed.migrate_idle();
    std::thread::sleep(std::time::Duration::from_millis(20));
    timed.submit(scan(1));
    assert_eq!(timed.trace().executor_gap_ns, 0);
    // Between two calls inside a query, it is.
    std::thread::sleep(std::time::Duration::from_millis(20));
    timed.submit(scan(2));
    assert!(timed.trace().executor_gap_ns >= 20_000_000);
}
