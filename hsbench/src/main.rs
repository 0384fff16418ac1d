//! Runs one workload of the benchmark and prints its metrics.
//!
//! ```text
//! hsbench --workload <power|throughput|oltp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The run repeats the workload — set-up, measured window, checks — until
//! `--seconds` have passed or a check fails, after one warm-up repetition
//! that is checked but not measured, and reports the median of every
//! metric. `norm_wall_ns_per_block` takes the median of every segment of
//! the workload rather than of whole repetitions, after dividing each
//! segment's wall time by the host speed a fixed probe measured just
//! before and after its repetition (see `probe`). With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced repetitions and prints the per-layer
//! metrics, the unattributed share of wall time and the tracing overhead.
//! The last line of standard output is one JSON object; the exit code is
//! non-zero when any check fails.

use hsbench::probe;
use hsbench::report::{
    commit, describe, end_to_end, json_line, medians, peak_rss_mb, per_layer, tail_label, Metrics,
};
use hsbench::stats::{median, segment_medians, segment_walls, SEGMENTS};
use hsbench::workload::{prepare, run, splitmix64, Outcome, Spec, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Measured repetitions a run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Wall time after which a run stops even below `MIN_REPS`, so that it
/// always ends well within three minutes.
const HARD_STOP: Duration = Duration::from_secs(120);
/// Set-ups made per repetition; set-up is short, so its median over
/// several is what the repetition reports.
const SETUP_SAMPLES: usize = 5;
/// Probes averaged into one reading of the host's speed.
const PROBES_PER_READING: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One repetition: set-up (made `SETUP_SAMPLES` times, keeping the last
/// and the median wall time), then the run.
fn repetition(spec: &Spec, seed: u64, traced: bool) -> (Outcome, Duration, Duration, usize) {
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    let mut prepared = None;
    for _ in 0..SETUP_SAMPLES {
        drop(prepared.take());
        let started = Instant::now();
        prepared = Some(prepare(spec, seed));
        setups.push(started.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("SETUP_SAMPLES is positive");
    let setup = Duration::from_secs_f64(median(&setups).expect("SETUP_SAMPLES is positive"));
    let (plan_build, plans) = (prepared.plan_build, prepared.plans);
    (run(prepared, traced), setup, plan_build, plans)
}

/// Pins glibc's mmap threshold at its default of 128 KiB. Left dynamic,
/// glibc raises the threshold after the first large block is freed, so
/// later repetitions build their tables in heap memory that is never
/// returned, and peak RSS depends on the allocation history: it varied by
/// up to 10% between runs of one seed. Pinned, large blocks are mapped and
/// unmapped with their owner and peak RSS follows live memory.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() -> bool {
    use std::ffi::c_int;
    const M_MMAP_THRESHOLD: c_int = -3;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // SAFETY: `mallopt` is glibc's allocator-tuning call. It takes two
    // integers, touches no memory the program owns, and runs before any
    // other thread exists.
    unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() -> bool {
    false
}

/// One reading of the host's speed: the mean step time of a few probes.
fn probe_host() -> f64 {
    (0..PROBES_PER_READING)
        .map(|_| probe::step_ns())
        .sum::<f64>()
        / PROBES_PER_READING as f64
}

/// The workload's wall time in probe steps: each segment of repetition
/// `rep` is divided by the mean of the host readings just before and just
/// after it (`host_steps[rep]` and `host_steps[rep + 1]`), and the segments'
/// medians over repetitions are summed. `None` when the repetitions were
/// cut into different numbers of segments.
fn normalised_wall(measured: &[(usize, Vec<Duration>)], host_steps: &[f64]) -> Option<f64> {
    let reps: Vec<Vec<f64>> = measured
        .iter()
        .map(|(rep, segments)| {
            let step = (host_steps[*rep] + host_steps[*rep + 1]) / 2.0;
            segments
                .iter()
                .map(|wall| wall.as_nanos() as f64 / step)
                .collect()
        })
        .collect();
    segment_medians(&reps)
}

fn main() -> ExitCode {
    let pinned = pin_mmap_threshold();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hsbench: {e}");
            eprintln!(
                "usage: hsbench --workload <power|throughput|oltp> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spec = Spec::standard(args.workload, nproc);
    let threads = if args.workload == Workload::Power {
        1
    } else {
        spec.workers + 1
    };
    println!(
        "# hsbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# provenance: nproc={nproc} rustc=\"{}\" commit={} scale_factor={} workers={} threads={threads}{} seed={} executor_seed={:#x}",
        env!("HSBENCH_RUSTC_VERSION"),
        commit().unwrap_or_else(|| "unknown(not-a-git-checkout)".to_string()),
        spec.scale,
        spec.workers,
        if threads > nproc {
            " (oversubscription: more threads than cores)"
        } else {
            ""
        },
        args.seed,
        splitmix64(args.seed),
    );
    if !pinned {
        println!("# the allocator's mmap threshold is not pinned: peak_rss_mb depends on history");
    }

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut failures: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reference: Option<Outcome> = None;
    let mut untraced: Vec<Metrics> = Vec::new();
    let mut traced: Vec<Metrics> = Vec::new();
    let (mut untraced_wall, mut traced_wall) = (Vec::new(), Vec::new());
    // The probe's step time before every repetition of an untraced run and
    // after the last; per measured untraced repetition, its index, the wall
    // time of each segment and the blocks the executor requested.
    let mut host_steps: Vec<f64> = Vec::new();
    let mut measured: Vec<(usize, Vec<Duration>)> = Vec::new();
    let mut blocks = Vec::new();
    for rep in 0.. {
        let enough = if args.trace {
            untraced.len().min(traced.len()) >= 2
        } else {
            untraced.len() >= MIN_REPS
        };
        let elapsed = started.elapsed();
        let broken = !failures.is_empty() || failed > 0;
        if broken || (enough && elapsed >= budget) || elapsed >= HARD_STOP {
            break;
        }
        // Repetition 0 warms up; in a traced run the rest alternate.
        let trace_this = args.trace && rep % 2 == 1;
        if !args.trace {
            host_steps.push(probe_host());
        }
        let (outcome, setup, plan_build, plans) = repetition(&spec, args.seed, trace_this);
        attempted += outcome.attempted;
        failed += outcome.failed;
        failures.extend(outcome.failures.iter().map(|f| format!("rep {rep}: {f}")));
        if args.workload.deterministic() {
            if let Some(first) = &reference {
                if first.sim != outcome.sim
                    || first.cache != outcome.cache
                    || first.resident != outcome.resident
                {
                    failures.push(format!(
                        "rep {rep} (traced: {trace_this}) diverged from rep 0: sim {:?} vs {:?}, \
                         resident {} vs {}, statistics equal: {}",
                        outcome.sim,
                        first.sim,
                        outcome.resident,
                        first.resident,
                        first.cache == outcome.cache
                    ));
                }
            }
        }
        if rep > 0 {
            if trace_this {
                traced.push(per_layer(&outcome, plan_build, plans));
                traced_wall.push(outcome.wall.as_secs_f64());
            } else {
                untraced.push(end_to_end(&outcome, setup));
                untraced_wall.push(outcome.wall.as_secs_f64());
                let segments = if args.workload.deterministic() {
                    SEGMENTS
                } else {
                    1
                };
                measured.push((rep, segment_walls(&outcome.completed_at, segments)));
                blocks.push(outcome.blocks as f64);
            }
        }
        if reference.is_none() {
            println!(
                "# sim_query_tail_ms reports the {}",
                tail_label(outcome.latencies_ns.len())
            );
            reference = Some(outcome);
        }
    }

    let (reps, metrics) = if args.trace {
        let mut metrics = medians(&traced);
        let overhead =
            median(&traced_wall).unwrap_or(0.0) / median(&untraced_wall).unwrap_or(f64::INFINITY);
        metrics.insert("trace.overhead_ratio", overhead);
        println!(
            "# {} traced and {} untraced repetitions after one warm-up; device-model wall time \
             is inside cache.* (it cannot be separated from outside the program)",
            traced.len(),
            untraced.len()
        );
        (traced, metrics)
    } else {
        let mut metrics = medians(&untraced);
        if !untraced.is_empty() {
            host_steps.push(probe_host());
            let per_block = median(&blocks).unwrap_or(f64::NAN);
            match normalised_wall(&measured, &host_steps) {
                Some(steps) => {
                    metrics.insert(
                        "norm_wall_ns_per_block",
                        steps * probe::REFERENCE_STEP_NS / per_block,
                    );
                }
                None => failures.push(
                    "the measured repetitions completed different numbers of queries".to_string(),
                ),
            }
            let wall: Vec<f64> = untraced_wall.iter().map(|w| w * 1e9).collect();
            println!(
                "# unnormalised wall ns per block over {} repetitions: median {:.1} min {:.1} \
                 max {:.1}; probe ns per step: median {:.2} min {:.2} max {:.2} (reference {})",
                wall.len(),
                median(&wall).unwrap_or(0.0) / per_block,
                wall.iter().copied().fold(f64::INFINITY, f64::min) / per_block,
                wall.iter().copied().fold(0.0, f64::max) / per_block,
                median(&host_steps).unwrap_or(0.0),
                host_steps.iter().copied().fold(f64::INFINITY, f64::min),
                host_steps.iter().copied().fold(0.0, f64::max),
                probe::REFERENCE_STEP_NS,
            );
        }
        match peak_rss_mb() {
            Some(mb) => {
                metrics.insert("peak_rss_mb", mb);
            }
            None => failures.push("cannot read VmHWM from /proc/self/status".to_string()),
        }
        println!(
            "# {} measured repetitions after one warm-up",
            untraced.len()
        );
        (untraced, metrics)
    };
    for (name, value) in &metrics {
        if !value.is_finite() {
            failures.push(format!("{name} is not a finite number"));
        }
    }
    print!("{}", describe(&metrics, &reps));
    for failure in &failures {
        println!("# CHECK FAILED: {failure}");
    }
    let correct = failures.is_empty() && failed == 0;
    if correct {
        println!(
            "# checks passed: every query completed once, no query left registered, the cache \
             stayed within capacity{}",
            match args.workload {
                Workload::Throughput => "",
                Workload::Power =>
                    ", simulated outputs identical in every repetition, traced or not",
                Workload::Oltp => {
                    ", simulated outputs identical in every repetition, traced or not, journal \
                     recovery converged"
                }
            }
        );
    }
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
