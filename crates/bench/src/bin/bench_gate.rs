//! CI performance-regression gate.
//!
//! Runs a quick submit-throughput workload (shared with the
//! `batch_throughput` and `policy_sweep` benches via
//! `hstorage_bench::workload`), writes the measurements to
//! `BENCH_report.json` as machine-readable `PaperComparison`-style rows,
//! compares them against the committed `BENCH_baseline.json`, and exits
//! non-zero if any *gated* metric regressed by more than 25% — or if
//! batched submission is not strictly faster than per-request submission
//! (the vectored-path acceptance criterion).
//!
//! Most row values are oriented so that **higher is better** (throughputs
//! and speedup ratios); the service request-latency percentile rows are
//! **lower is better** and are gated with the mirrored condition (fail when
//! measured exceeds baseline ÷ 0.75). Not every row is gated:
//!
//! * `sim:` rows are measured in *simulated* device time, which is
//!   deterministic — identical on every machine — so any drift is a real
//!   behaviour change in the storage model, the batching pipeline or a
//!   cache policy. Gated. This includes a mixed-workload throughput *and*
//!   hit-ratio row per selectable cache policy, so a silent change to any
//!   replacement algorithm fails the gate; on top of the baseline
//!   comparison, ARC's hit ratio must never fall below engine-LRU's (the
//!   adaptive policy's acceptance criterion). The query-service rows run a
//!   fixed stream workload through the bounded-worker service at one
//!   worker — fully deterministic — and gate the simulated p50/p99/p999
//!   request latencies. The tier-migration rows run the phase-shift
//!   workload with and without the background migration engine: the
//!   migration-off hit ratio pins the engine's default behaviour
//!   bit-for-bit, and migration-on must strictly beat it (the migration
//!   acceptance criterion, gated baseline-free like the ARC one).
//! * The wall-clock *speedup ratio* is machine-robust (both sides run on
//!   the same machine in the same process). Gated.
//! * Absolute wall-clock throughputs vary with the runner's hardware, so
//!   they are reported for the record but **not** compared against the
//!   committed baseline (a laptop baseline would fail every slower CI
//!   runner spuriously).
//!
//! A gated metric missing from the baseline is an error: renaming or
//! adding rows requires refreshing the baseline, otherwise the gate would
//! silently guard nothing.
//!
//! Usage:
//! `bench_gate [--baseline <path>] [--report <path>]
//! [--write-baseline | --update-baseline | --check-baseline]`
//!
//! `--update-baseline` regenerates the baseline **deterministically**:
//! `sim:` rows take the freshly measured (machine-independent) values and
//! machine-dependent rows keep their committed values, so a baseline bump
//! produces the same file on any machine — no more hand-editing. Only new
//! machine-dependent rows fall back to this machine's measurement. The run
//! ends with a changed-vs-preserved summary so a bump that was expected to
//! be a no-op is visible as one.
//! `--write-baseline` snapshots *every* row as measured here (first-time
//! setup, or after an intentional wall-clock performance change).
//! `--check-baseline` regenerates the deterministic rows in memory and
//! fails — writing nothing — if `--update-baseline` would change any of
//! them: the CI guard against behaviour changes shipped without a baseline
//! refresh. Wall-clock measurements are skipped entirely (they are
//! preserved by `--update-baseline` anyway, so they cannot drift).

use hstorage::experiments::{crash_recovery, tier_migration};
use hstorage::report::{comparisons_from_json, comparisons_to_json, format_table, PaperComparison};
use hstorage_bench::workload::{
    contended_hot_reads, drive, fresh_cache, interior_hit_read, interior_submits, mixed_policy_run,
    random_read, scan_read, service_latency_percentiles, warmed_cache, warmed_interior_cache,
    HOT_READS_PER_THREAD, QUEUE_DEPTH, TOTAL_SUBMITS,
};
use hstorage_cache::{CachePolicyKind, StorageSystem};
use std::time::Instant;

const WALL_RUNS: usize = 5;
/// A gated metric fails when it drops below this fraction of the baseline.
const REGRESSION_FLOOR: f64 = 0.75;

/// One gate metric: value measured this run, whether the 25% baseline
/// comparison applies to it, whether the measurement is deterministic
/// (simulated time — identical on every machine), and its orientation
/// (latency rows are lower-is-better; everything else higher-is-better).
/// The orientation is in-memory only — the JSON rows stay shape-compatible
/// with `PaperComparison`.
struct Measurement {
    metric: String,
    value: f64,
    gated: bool,
    deterministic: bool,
    lower_is_better: bool,
}

/// Median wall-clock submits/second over [`WALL_RUNS`] fresh-cache runs of
/// the scan-shaped workload (the semantic-batch hot path the vectored
/// submission pipeline targets).
fn wall_throughput(batch: usize) -> f64 {
    let mut rates: Vec<f64> = (0..WALL_RUNS)
        .map(|_| {
            let cache = fresh_cache(QUEUE_DEPTH);
            let start = Instant::now();
            drive(&cache, batch, scan_read);
            TOTAL_SUBMITS as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    rates[WALL_RUNS / 2]
}

/// Simulated device seconds for a batched scan at the given queue depth —
/// deterministic, so it is a bit-stable regression guard for the storage
/// timing model and the merge pipeline.
fn sim_scan_seconds(queue_depth: usize) -> f64 {
    let cache = fresh_cache(queue_depth);
    drive(&cache, 64, scan_read);
    cache.now().as_secs_f64()
}

/// Deterministic simulated seconds for the random-shaped workload — guards
/// the cache-management and random-service paths the scan metric misses.
fn sim_random_seconds() -> f64 {
    let cache = fresh_cache(QUEUE_DEPTH);
    drive(&cache, 64, random_read);
    cache.now().as_secs_f64()
}

/// Runs the contended hot-read workload single-threaded (deterministic) on
/// the lock-light and the fully locked engine and returns
/// `(stats_parity, time_parity, fast_path_rate)`: the parity values are
/// `1.0` iff the two engines' logical statistics / simulated clocks came
/// out bit-identical — the optimistic path's correctness contract — and
/// the rate is the fraction of hot-path visits the lock-light engine
/// served without the stripe mutex.
fn hot_read_equivalence() -> (f64, f64, f64) {
    let optimistic = warmed_cache(true);
    let locked = warmed_cache(false);
    contended_hot_reads(&optimistic, 1, HOT_READS_PER_THREAD);
    contended_hot_reads(&locked, 1, HOT_READS_PER_THREAD);
    let stats_parity = f64::from(optimistic.stats() == locked.stats());
    let time_parity = f64::from(optimistic.now() == locked.now());
    (
        stats_parity,
        time_parity,
        optimistic.stats().contention.fast_path_rate(),
    )
}

/// Median wall-clock single-thread submits/second over [`WALL_RUNS`]
/// pre-warmed runs of the interior hit cycle. The working set holds
/// hundreds of resident blocks per shard, so the optimistic descriptor
/// never matches and every submit pays the locked path — stripe mutex,
/// metadata probe, policy-list touch.
fn interior_wall_throughput() -> f64 {
    let mut rates: Vec<f64> = (0..WALL_RUNS)
        .map(|_| {
            let cache = warmed_interior_cache();
            let start = Instant::now();
            interior_submits(&cache, 0, TOTAL_SUBMITS, interior_hit_read);
            TOTAL_SUBMITS as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    rates[WALL_RUNS / 2]
}

/// Median wall-clock hot-read submits/second over [`WALL_RUNS`] pre-warmed
/// runs of the contended workload at `threads` OS threads.
fn contended_wall_throughput(optimistic: bool, threads: usize) -> f64 {
    let total = (threads as u64 * HOT_READS_PER_THREAD) as f64;
    let mut rates: Vec<f64> = (0..WALL_RUNS)
        .map(|_| {
            let cache = warmed_cache(optimistic);
            let start = Instant::now();
            contended_hot_reads(&cache, threads, HOT_READS_PER_THREAD);
            total / start.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    rates[WALL_RUNS / 2]
}

fn main() {
    let mut baseline_path = "BENCH_baseline.json".to_string();
    let mut report_path = "BENCH_report.json".to_string();
    let mut write_baseline = false;
    let mut update_baseline = false;
    let mut check_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = args.next().expect("--baseline needs a path"),
            "--report" => report_path = args.next().expect("--report needs a path"),
            "--write-baseline" => write_baseline = true,
            "--update-baseline" => update_baseline = true,
            "--check-baseline" => check_baseline = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_gate [--baseline <path>] [--report <path>] \
                     [--write-baseline | --update-baseline | --check-baseline]"
                );
                std::process::exit(2);
            }
        }
    }
    if usize::from(write_baseline) + usize::from(update_baseline) + usize::from(check_baseline) > 1
    {
        eprintln!(
            "bench_gate: --write-baseline, --update-baseline and --check-baseline \
             are mutually exclusive"
        );
        std::process::exit(2);
    }

    println!("bench_gate: quick submit-throughput workload ({TOTAL_SUBMITS} submits per run)");
    // `--check-baseline` only looks at deterministic rows, so the wall
    // measurements — the slow half of the run — are skipped; their rows
    // carry NaN and are never compared or written in that mode.
    let wall = |f: &dyn Fn() -> f64| if check_baseline { f64::NAN } else { f() };
    let wall_single = wall(&|| wall_throughput(1));
    let wall_batch64 = wall(&|| wall_throughput(64));
    let sim_unbatched = sim_scan_seconds(1);
    let sim_batched = sim_scan_seconds(QUEUE_DEPTH);
    let sim_random = sim_random_seconds();
    let mut measurements = vec![
        Measurement {
            metric: "wall: scan single-submit throughput (submits/s)".into(),
            value: wall_single,
            gated: false,
            deterministic: false,
            lower_is_better: false,
        },
        Measurement {
            metric: "wall: scan batch=64 submit throughput (submits/s)".into(),
            value: wall_batch64,
            gated: false,
            deterministic: false,
            lower_is_better: false,
        },
        Measurement {
            metric: "wall: scan batch=64 speedup over single submit (x)".into(),
            value: wall_batch64 / wall_single,
            gated: true,
            deterministic: false,
            lower_is_better: false,
        },
        Measurement {
            metric: "sim: scan device throughput at queue depth 32 (submits/sim-s)".into(),
            value: TOTAL_SUBMITS as f64 / sim_batched,
            gated: true,
            deterministic: true,
            lower_is_better: false,
        },
        Measurement {
            metric: "sim: scan queue-merge device-time speedup at depth 32 (x)".into(),
            value: sim_unbatched / sim_batched,
            gated: true,
            deterministic: true,
            lower_is_better: false,
        },
        Measurement {
            metric: "sim: random workload device throughput (submits/sim-s)".into(),
            value: TOTAL_SUBMITS as f64 / sim_random,
            gated: true,
            deterministic: true,
            lower_is_better: false,
        },
    ];
    // One mixed-workload run per selectable policy contributes two
    // deterministic gated rows: simulated device throughput (a behaviour
    // change in any replacement algorithm shifts it) and the overall hit
    // ratio (which also feeds the ARC-vs-LRU acceptance check below).
    let mut policy_hit_ratio = Vec::new();
    for kind in CachePolicyKind::all() {
        let (sim_seconds, hit_ratio) = mixed_policy_run(kind);
        measurements.push(Measurement {
            metric: format!(
                "sim: {} policy mixed-workload device throughput (submits/sim-s)",
                kind.label()
            ),
            value: TOTAL_SUBMITS as f64 / sim_seconds,
            gated: true,
            deterministic: true,
            lower_is_better: false,
        });
        measurements.push(Measurement {
            metric: format!("sim: {} policy mixed-workload hit ratio", kind.label()),
            value: hit_ratio,
            gated: true,
            deterministic: true,
            lower_is_better: false,
        });
        policy_hit_ratio.push((kind, hit_ratio));
    }
    // Query-service request-latency percentiles at one worker: simulated,
    // so bit-identical on every machine. Gated lower-is-better — a tail
    // blow-up in the executor, the storage model or the service's
    // scheduling fails the gate even if throughput rows stay flat.
    let (lat_p50, lat_p99, lat_p999) = service_latency_percentiles();
    for (name, value) in [("p50", lat_p50), ("p99", lat_p99), ("p999", lat_p999)] {
        measurements.push(Measurement {
            metric: format!("sim: service 1-worker request latency {name} (sim-ms)"),
            value,
            gated: true,
            deterministic: true,
            lower_is_better: true,
        });
    }
    // Tier migration under the phase-shifting workload: simulated, fully
    // deterministic. The migration-off hit ratio pins the PR 7 baseline
    // behaviour bit-for-bit (migration defaults to off, so any drift here
    // is a foreground-path change); the migration-on rows pin the
    // migration engine's outcome at the shipped knob values.
    let tier = tier_migration::run();
    for (name, value) in [
        (
            "sim: tier-migration phase-shift hit ratio, migration off",
            tier.off.hit_ratio,
        ),
        (
            "sim: tier-migration phase-shift hit ratio, migration on",
            tier.on.hit_ratio,
        ),
        (
            "sim: tier-migration phase-shift hit-ratio gain, on/off (x)",
            tier.hit_gain(),
        ),
    ] {
        measurements.push(Measurement {
            metric: name.into(),
            value,
            gated: true,
            deterministic: true,
            lower_is_better: false,
        });
    }
    // Crash recovery from the write-ahead journal: simulated, fully
    // deterministic (fixed workload, fixed crash seeds). The replay-time
    // row pins the cost of recovering the full log; the records row pins
    // the log shape (framing or workload drift shows up here); the ratio
    // row pins losslessness — full-log recovery must rebuild exactly the
    // clean run's resident set.
    let recovery = crash_recovery::run();
    measurements.push(Measurement {
        metric: "sim: recovery full-log replay time (sim-s)".into(),
        value: recovery.full.replay_sim,
        gated: true,
        deterministic: true,
        lower_is_better: true,
    });
    for (name, value) in [
        (
            "sim: recovery full-log records replayed",
            recovery.full.records_replayed as f64,
        ),
        (
            "sim: recovery blocks-recovered ratio, full log (1 = lossless)",
            recovery.blocks_recovered_ratio(),
        ),
    ] {
        measurements.push(Measurement {
            metric: name.into(),
            value,
            gated: true,
            deterministic: true,
            lower_is_better: false,
        });
    }
    // The lock-light hot path: deterministic single-threaded equivalence
    // rows (the optimistic engine must produce bit-identical statistics
    // and simulated time to the fully locked one, while actually taking
    // its fast path), plus ungated wall-clock contended-throughput rows.
    let (hot_stats_parity, hot_time_parity, hot_fast_rate) = hot_read_equivalence();
    for (name, value) in [
        (
            "sim: contended hot-read stats parity, lock-light vs locked (1 = equal)",
            hot_stats_parity,
        ),
        (
            "sim: contended hot-read device-time parity, lock-light vs locked (1 = equal)",
            hot_time_parity,
        ),
        (
            "sim: contended hot-read optimistic fast-path hit rate (1 thread)",
            hot_fast_rate,
        ),
    ] {
        measurements.push(Measurement {
            metric: name.into(),
            value,
            gated: true,
            deterministic: true,
            lower_is_better: false,
        });
    }
    let contended_locked_8 = wall(&|| contended_wall_throughput(false, 8));
    let contended_opt = [8usize, 16, 32].map(|t| (t, wall(&|| contended_wall_throughput(true, t))));
    for (threads, rate) in contended_opt {
        measurements.push(Measurement {
            metric: format!("wall: contended hot-read throughput at {threads} threads (submits/s)"),
            value: rate,
            gated: false,
            deterministic: false,
            lower_is_better: false,
        });
    }
    measurements.push(Measurement {
        metric: "wall: contended 8-thread lock-light speedup over locked hot path (x)".into(),
        value: contended_opt[0].1 / contended_locked_8,
        gated: false,
        deterministic: false,
        lower_is_better: false,
    });
    // The shard interior (open-addressing table + arena lists):
    // single-thread hit-cycle throughput, machine-dependent and ungated.
    // The row keeps its historical "flat" name so the committed baseline
    // value carries over.
    measurements.push(Measurement {
        metric: "wall: interior flat single-thread hit-cycle throughput (submits/s)".into(),
        value: wall(&interior_wall_throughput),
        gated: false,
        deterministic: false,
        lower_is_better: false,
    });

    if write_baseline || update_baseline {
        // --update-baseline keeps the committed values of
        // machine-dependent rows so the regenerated file is deterministic;
        // --write-baseline snapshots everything as measured here.
        let old = if update_baseline {
            std::fs::read_to_string(&baseline_path)
                .ok()
                .and_then(|text| comparisons_from_json(&text).ok())
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        let (mut sim_changed, mut sim_unchanged, mut wall_preserved, mut wall_new) = (0, 0, 0, 0);
        let rows: Vec<PaperComparison> = measurements
            .iter()
            .map(|m| {
                let old_value = old
                    .iter()
                    .find(|r| r.metric == m.metric)
                    .map(|r| r.measured);
                let preserved = if m.deterministic { None } else { old_value };
                if update_baseline {
                    // Changed-vs-preserved summary: sim rows are compared
                    // against their committed values (a no-op bump should
                    // read "0 changed"), wall rows just report whether a
                    // committed value existed to preserve.
                    if m.deterministic {
                        match old_value {
                            Some(v) if v == m.value => {
                                sim_unchanged += 1;
                                println!("  unchanged  {} = {v:.3}", m.metric);
                            }
                            Some(v) => {
                                sim_changed += 1;
                                println!("  changed    {}: {v:.3} -> {:.3}", m.metric, m.value);
                            }
                            None => {
                                sim_changed += 1;
                                println!("  added      {} = {:.3}", m.metric, m.value);
                            }
                        }
                    } else {
                        match preserved {
                            Some(v) => {
                                wall_preserved += 1;
                                println!("  preserved  {} = {v:.3}", m.metric);
                            }
                            None => {
                                wall_new += 1;
                                println!("  measured   {} = {:.3}", m.metric, m.value);
                            }
                        }
                    }
                }
                let value = preserved.unwrap_or(m.value);
                PaperComparison::new(m.metric.clone(), value, value)
            })
            .collect();
        std::fs::write(&baseline_path, comparisons_to_json(&rows)).unwrap_or_else(|e| {
            eprintln!("bench_gate: cannot write {baseline_path}: {e}");
            std::process::exit(1);
        });
        std::fs::write(&report_path, comparisons_to_json(&rows)).unwrap_or_else(|e| {
            eprintln!("bench_gate: cannot write {report_path}: {e}");
            std::process::exit(1);
        });
        if update_baseline {
            println!(
                "summary: {sim_changed} sim row(s) changed, {sim_unchanged} unchanged; \
                 {wall_preserved} wall row(s) preserved, {wall_new} newly measured"
            );
        }
        println!("baseline written to {baseline_path}");
        return;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match comparisons_from_json(&text) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("bench_gate: cannot parse {baseline_path}: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!(
                "bench_gate: cannot read {baseline_path}: {e} \
                 (run with --write-baseline to create it)"
            );
            std::process::exit(1);
        }
    };
    let baseline_value = |metric: &str| -> Option<f64> {
        baseline
            .iter()
            .find(|r| r.metric == metric)
            .map(|r| r.measured)
    };

    if check_baseline {
        // `--update-baseline` overwrites sim rows with freshly measured
        // values and preserves everything else, so the committed baseline
        // is stale iff any deterministic row differs from its committed
        // value. Baseline floats are written in shortest round-trip form,
        // so the equality below is bit-exact, not a tolerance band.
        let mut drift = Vec::new();
        for m in measurements.iter().filter(|m| m.deterministic) {
            match baseline_value(&m.metric) {
                Some(v) if v == m.value => {}
                Some(v) => drift.push(format!(
                    "{}: committed {v} != regenerated {}",
                    m.metric, m.value
                )),
                None => drift.push(format!("{}: missing from {baseline_path}", m.metric)),
            }
        }
        if drift.is_empty() {
            let checked = measurements.iter().filter(|m| m.deterministic).count();
            println!("bench_gate: baseline is current ({checked} sim rows bit-identical)");
            return;
        }
        for d in &drift {
            eprintln!("bench_gate: STALE BASELINE: {d}");
        }
        eprintln!(
            "bench_gate: {baseline_path} no longer matches the code — refresh it \
             with --update-baseline and commit the result"
        );
        std::process::exit(1);
    }

    let mut failures = Vec::new();

    // Report rows: `paper` holds the baseline value (the fresh measurement
    // for ungated rows without one), `measured` the value from this run —
    // the same shape the paper-fidelity comparisons use. A *gated* metric
    // with no baseline row is an error, not a silent self-baseline.
    let report: Vec<PaperComparison> = measurements
        .iter()
        .map(|m| {
            let base = baseline_value(&m.metric);
            if m.gated && base.is_none() {
                failures.push(format!(
                    "{}: no row in {baseline_path} — refresh it with --update-baseline",
                    m.metric
                ));
            }
            PaperComparison::new(m.metric.clone(), base.unwrap_or(m.value), m.value)
        })
        .collect();
    for stale in baseline
        .iter()
        .filter(|b| measurements.iter().all(|m| m.metric != b.metric))
    {
        eprintln!(
            "bench_gate: warning: baseline row {:?} matches no measured metric (stale?)",
            stale.metric
        );
    }

    let rows: Vec<Vec<String>> = measurements
        .iter()
        .zip(&report)
        .map(|(m, r)| {
            vec![
                r.metric.clone(),
                format!("{:.3}", r.paper),
                format!("{:.3}", r.measured),
                format!("{:.2}", r.measured / r.paper),
                if m.gated { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(&["metric", "baseline", "measured", "ratio", "gated"], &rows)
    );

    std::fs::write(&report_path, comparisons_to_json(&report)).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot write {report_path}: {e}");
        std::process::exit(1);
    });
    println!("report written to {report_path}");

    // Acceptance criterion of the vectored path, gated even against a
    // stale baseline: batched submission must beat per-request submission.
    if wall_batch64 <= wall_single {
        failures.push(format!(
            "batch=64 throughput ({wall_batch64:.0}/s) is not strictly better than \
             single-submit ({wall_single:.0}/s)"
        ));
    }
    // Acceptance criteria of the lock-light hot path, baseline-free: the
    // optimistic engine must be *exactly* equivalent to the locked one on
    // the deterministic run (parity rows are 1 or 0, so the 25% band would
    // be meaningless), must actually take its fast path, and must beat the
    // locked engine's wall-clock throughput under 8-thread contention.
    if hot_stats_parity != 1.0 {
        failures.push(
            "lock-light hot path diverged from the locked path's statistics \
             on the deterministic hot-read run"
                .to_string(),
        );
    }
    if hot_time_parity != 1.0 {
        failures.push(
            "lock-light hot path diverged from the locked path's simulated \
             device time on the deterministic hot-read run"
                .to_string(),
        );
    }
    if hot_fast_rate <= 0.0 {
        failures.push(
            "optimistic fast path served no hot-read hits (rate 0) — the \
             lock-light path is not engaging"
                .to_string(),
        );
    }
    if contended_opt[0].1 <= contended_locked_8 {
        failures.push(format!(
            "8-thread contended hot-read throughput with the lock-light path \
             ({:.0}/s) is not strictly better than the locked path ({contended_locked_8:.0}/s)",
            contended_opt[0].1
        ));
    }
    // Acceptance criterion of the adaptive policy, also baseline-free:
    // self-tuning ARC must hit at least as often as engine-LRU on the
    // mixed workload (scan pollution plus a reused random set is exactly
    // the shape ARC exists to win).
    let hit_of = |kind: CachePolicyKind| {
        policy_hit_ratio
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, h)| *h)
            .expect("every policy was measured")
    };
    let (arc_hits, lru_hits) = (hit_of(CachePolicyKind::Arc), hit_of(CachePolicyKind::Lru));
    if arc_hits < lru_hits {
        failures.push(format!(
            "ARC mixed-workload hit ratio ({arc_hits:.4}) fell below engine-LRU's \
             ({lru_hits:.4})"
        ));
    }
    // Acceptance criterion of the migration engine, also baseline-free:
    // enabling migration must strictly raise the hit ratio on the
    // phase-shift workload (the whole point of following working-set
    // shifts that selective eviction alone cannot).
    if tier.on.hit_ratio <= tier.off.hit_ratio {
        failures.push(format!(
            "tier migration did not improve the phase-shift hit ratio \
             ({:.4} on vs {:.4} off)",
            tier.on.hit_ratio, tier.off.hit_ratio
        ));
    }
    for (m, row) in measurements.iter().zip(&report) {
        if !m.gated {
            continue;
        }
        // Lower-is-better rows (latencies) gate with the mirrored
        // condition: fail when measured exceeds baseline / floor.
        if m.lower_is_better {
            if row.measured > row.paper / REGRESSION_FLOOR {
                failures.push(format!(
                    "{}: measured {:.3} exceeds baseline {:.3} by more than {:.0}%",
                    row.metric,
                    row.measured,
                    row.paper,
                    (1.0 / REGRESSION_FLOOR - 1.0) * 100.0
                ));
            }
        } else if row.measured < REGRESSION_FLOOR * row.paper {
            failures.push(format!(
                "{}: measured {:.3} is below {:.0}% of baseline {:.3}",
                row.metric,
                row.measured,
                REGRESSION_FLOOR * 100.0,
                row.paper
            ));
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("bench_gate: REGRESSION: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "bench_gate: all gated metrics within {:.0}% of baseline",
        REGRESSION_FLOOR * 100.0
    );
}
