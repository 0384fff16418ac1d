//! A fixed reference kernel that measures how fast the host runs.
//!
//! On a shared host the program's wall time follows the load of the
//! neighbours: the same repetition runs 30% slower for minutes at a time,
//! and a pure arithmetic loop slows down as much. The benchmark runs this
//! probe between repetitions and rescales the program's wall time by the
//! probe's, so the end-to-end wall metric compares runs made at different
//! host speeds. The probe does the kind of work the cache engine does —
//! random reads and writes of a table larger than the per-core caches,
//! with some arithmetic per access — and never changes, so a change to the
//! program cannot move it.

use crate::workload::splitmix64;
use std::hint::black_box;
use std::time::Instant;

/// Entries of the probe's table: 16 MiB of `u64`, larger than a core's L2.
/// The table is allocated per probe and freed after it, and is smaller
/// than any workload's live memory, so it never raises peak RSS.
const TABLE_ENTRIES: usize = 1 << 21;

/// Steps of one probe: about 20 ms on an unloaded host.
const STEPS: u64 = 500_000;

/// The probe's step time, in nanoseconds, at which the rescaled wall time
/// equals the measured one: about the median step time on an unloaded
/// 2-vCPU KVM guest of a Xeon (Sapphire Rapids) host.
pub const REFERENCE_STEP_NS: f64 = 40.0;

/// Runs the probe once and returns its wall time per step, in nanoseconds.
pub fn step_ns() -> f64 {
    let mut table: Vec<u64> = (0..TABLE_ENTRIES as u64).collect();
    let mask = TABLE_ENTRIES as u64 - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    let started = Instant::now();
    for _ in 0..STEPS {
        // The index does not depend on the value read, so the core may
        // overlap the misses of consecutive steps, as it overlaps the cache
        // engine's independent table probes.
        x = splitmix64(x);
        let slot = &mut table[(x & mask) as usize];
        acc = acc.wrapping_add(*slot);
        *slot = acc;
        for k in 0..8u64 {
            acc = black_box(acc.rotate_left(7) ^ k.wrapping_mul(x));
        }
    }
    let elapsed = started.elapsed();
    black_box((acc, &table));
    elapsed.as_nanos() as f64 / STEPS as f64
}
