//! Turns run outcomes into named metrics, and prints them.

use crate::stats::{median, percentile, tail_percentile};
use crate::timed::Op;
use crate::workload::Outcome;
use hstorage_cache::CacheAction;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Metric name → value, for one repetition or the median over repetitions.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Unit of every metric the benchmark prints.
pub fn unit(name: &str) -> &'static str {
    match name {
        "norm_wall_ns_per_block" | "engine.executor.self_ns_per_block" => "ns",
        "sim_s"
        | "setup_s"
        | "cache.journal.replay_s"
        | "storage.hdd.busy_s"
        | "storage.ssd.busy_s" => "s",
        "peak_rss_mb" => "MiB",
        "sim_query_mean_ms" | "sim_query_tail_ms" => "ms",
        "tpch.build_plan_us"
        | "engine.program.compile_us"
        | "engine.service.submit_wait_us"
        | "engine.service.reply_us_p50" => "us",
        "cache.submit_ns" | "cache.submit_batch_ns" | "cache.trim_ns" | "cache.migrate_idle_ns" => {
            "ns"
        }
        "engine.program.ops" | "cache.lock_acquisitions" | "storage.hdd.random_requests" => "count",
        "cache.wb_flushes" => "blocks",
        _ => "ratio",
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics of one untraced repetition (all but
/// `peak_rss_mb`, which belongs to the process, and
/// `norm_wall_ns_per_block`, which takes the fastest of every repetition's
/// segments).
pub fn end_to_end(outcome: &Outcome, setup: Duration) -> Metrics {
    let samples = &outcome.latencies_ns;
    let tail = tail_percentile(samples.len()).unwrap_or(50.0);
    let mean_ns = ratio(
        samples.iter().map(|&ns| ns as f64).sum(),
        samples.len() as f64,
    );
    Metrics::from([
        ("sim_s", secs(outcome.sim)),
        ("setup_s", secs(setup)),
        ("sim_query_mean_ms", mean_ns / 1e6),
        (
            "sim_query_tail_ms",
            percentile(samples, tail).unwrap_or(0) as f64 / 1e6,
        ),
    ])
}

/// The per-layer metrics of one traced repetition (all but
/// `trace.overhead_ratio`, which compares repetitions).
pub fn per_layer(outcome: &Outcome, plan_build: Duration, plans: usize) -> Metrics {
    let trace = outcome.storage_trace.unwrap_or_default();
    let compile = outcome.compile.unwrap_or_default();
    let service = outcome.service.clone().unwrap_or_default();
    let cache = &outcome.cache;
    let accessed = cache.totals().accessed_blocks as f64;
    let blocks = outcome.blocks as f64;
    let thread_ns = outcome.wall.as_nanos() as f64 * outcome.executing_threads as f64;
    let executor_ns = trace.executor_gap_ns as f64 + compile.wall.as_nanos() as f64;
    let storage_ns = trace.storage_ns() as f64;
    let (bp_hits, bp_misses) = outcome.buffer_pool;
    let completed = &service.per_worker_completed;
    let imbalance = match (completed.iter().max(), completed.iter().min()) {
        (Some(&max), Some(&min)) => max as f64 / min.max(1) as f64,
        _ => 0.0,
    };
    let device = |d: &Option<hstorage_storage::DeviceStats>| d.clone().unwrap_or_default();
    let (ssd, hdd) = (device(&cache.ssd), device(&cache.hdd));
    Metrics::from([
        (
            "tpch.build_plan_us",
            ratio(plan_build.as_nanos() as f64 / 1e3, plans as f64),
        ),
        (
            "engine.program.compile_us",
            ratio(
                compile.wall.as_nanos() as f64 / 1e3,
                compile.programs as f64,
            ),
        ),
        (
            "engine.program.ops",
            ratio(compile.ops as f64, compile.programs as f64),
        ),
        (
            "engine.executor.self_ns_per_block",
            ratio(executor_ns, blocks),
        ),
        (
            "engine.executor.requests_per_batch",
            ratio(
                trace.batched_requests as f64,
                trace.op(Op::SubmitBatch).calls as f64,
            ),
        ),
        (
            "engine.buffer_pool.hit_ratio",
            ratio(bp_hits as f64, (bp_hits + bp_misses) as f64),
        ),
        (
            "engine.service.submit_wait_us",
            ratio(
                service.submit_wait.as_nanos() as f64 / 1e3,
                service.submits as f64,
            ),
        ),
        (
            "engine.service.reply_us_p50",
            percentile(&service.reply_ns, 50.0).unwrap_or(0) as f64 / 1e3,
        ),
        ("engine.service.worker_imbalance", imbalance),
        ("cache.submit_ns", trace.op(Op::Submit).mean_ns()),
        ("cache.submit_batch_ns", trace.op(Op::SubmitBatch).mean_ns()),
        ("cache.trim_ns", trace.op(Op::Trim).mean_ns()),
        ("cache.migrate_idle_ns", trace.op(Op::MigrateIdle).mean_ns()),
        ("cache.wall_share", ratio(storage_ns, thread_ns)),
        ("cache.hit_ratio", cache.totals().hit_ratio()),
        (
            "cache.bypass_ratio",
            ratio(cache.action(CacheAction::Bypassing) as f64, accessed),
        ),
        (
            "cache.evictions_per_kblock",
            ratio(cache.action(CacheAction::Eviction) as f64 * 1e3, accessed),
        ),
        (
            "cache.wb_flushes",
            cache.action(CacheAction::WriteBufferFlush) as f64,
        ),
        (
            "cache.lock_acquisitions",
            cache.contention.lock_acquisitions as f64,
        ),
        ("cache.fast_path_rate", cache.contention.fast_path_rate()),
        (
            "cache.journal.records_per_op",
            ratio(outcome.journal_len as f64, trace.mutating_calls() as f64),
        ),
        (
            "cache.journal.replay_s",
            outcome.journal_replay.map_or(0.0, secs),
        ),
        ("storage.hdd.busy_s", secs(hdd.busy_time)),
        ("storage.ssd.busy_s", secs(ssd.busy_time)),
        ("storage.hdd.random_requests", hdd.random_requests as f64),
        (
            "storage.ssd.blocks_written_per_block",
            ratio(ssd.blocks_written as f64, blocks),
        ),
        (
            "trace.unattributed_share",
            1.0 - ratio(storage_ns + executor_ns, thread_ns),
        ),
    ])
}

/// The median of every metric over `reps`.
pub fn medians(reps: &[Metrics]) -> Metrics {
    let mut out = Metrics::new();
    if let Some(first) = reps.first() {
        for &name in first.keys() {
            let values: Vec<f64> = reps.iter().filter_map(|m| m.get(name).copied()).collect();
            out.insert(name, median(&values).unwrap_or(0.0));
        }
    }
    out
}

/// Peak resident set size of this process, in MiB, from `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without running git; `None` outside a git checkout.
pub fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_string)
    })
}

/// Which percentile `sim_query_tail_ms` reports for `samples` samples.
pub fn tail_label(samples: usize) -> String {
    match tail_percentile(samples) {
        Some(q) => format!("p{q} of {samples} samples"),
        None => format!("p50 of {samples} samples (fewer than needed for any tail)"),
    }
}

/// A human-readable line per metric: value, unit and range over
/// repetitions.
pub fn describe(metrics: &Metrics, reps: &[Metrics]) -> String {
    let mut out = String::new();
    for (name, value) in metrics {
        let mut values: Vec<f64> = reps.iter().filter_map(|m| m.get(name).copied()).collect();
        values.sort_by(f64::total_cmp);
        let spread = match (values.first(), values.last()) {
            (Some(lo), Some(hi)) if values.len() > 1 => {
                format!(
                    "  (min {lo:.6} max {hi:.6} over {} repetitions)",
                    values.len()
                )
            }
            _ => String::new(),
        };
        let _ = writeln!(out, "{name} = {value} {}{spread}", unit(name));
    }
    out
}

/// The final JSON line.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*value),
                unit(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}
