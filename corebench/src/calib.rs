//! Host-speed calibration of the CPU-bound timings.
//!
//! The benchmark's host is a shared VM. How fast it runs memory-bound
//! code swings by 20–40 % from one second to the next, and by 10–40 %
//! between minutes, with the neighbours' load. Raw times of CPU-bound
//! work then differ between runs of the same code by more than any
//! useful regression bound. So a [`Clock`] samples the host's speed with
//! a fixed reference kernel right before, between the steps of, and
//! right after every operation it times, and scales the operation's
//! time by (`NOMINAL_MS` over the mean of those samples) to the power
//! [`ELASTICITY`].
//!
//! The kernel is built from this file alone (no corepart code). A change
//! to corepart moves the operations and not the reference, so it shows
//! in full. A slow phase of the host moves both, and cancels.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::{mean, median};

/// The reference sample's time on the host the benchmark was designed
/// on (a 2-vCPU Xeon VM), so scaled times read about as wall times do
/// there in an average phase.
pub const NOMINAL_MS: f64 = 3.5;

/// How much more the workloads slow down than the kernel in the host's
/// slow phases: their time goes as the kernel's to this power. Fitted
/// on the design host by regressing, over 25-second windows, the log of
/// the median `paper-flow` round and 64-app corpus pass on the log of
/// the reference; it came out between 1.3 and 1.8 in four 4- to
/// 8-minute traces. With 1.5 the windows' spread was 2.5–4.5 %, against
/// 3–11 % with 1 and 8–20 % unscaled (see `README.md`).
pub const ELASTICITY: f64 = 1.5;

/// Iterations of one kernel run (about `NOMINAL_MS`).
const ITERS: u32 = 200_000;

/// Kernel runs per reference sample; the sample is their median.
const REPEATS: usize = 3;

/// Slots of the kernel's table (256 KiB of `u64`).
const TABLE: usize = 1 << 15;

/// The reference kernel: the mix of work a simulator and a compiler
/// front end do. It dispatches on pseudo-random opcodes, as an
/// instruction-set simulator does, reads and writes a freshly mapped
/// table that outgrows the first-level cache, and every 64 steps formats
/// a short string and updates an ordered map, as parsing and lowering
/// do. Its memory traffic is what makes it track the host's swings: a
/// kernel that stays in registers varies by a third as much as the
/// workloads do.
fn kernel(iters: u32) -> u64 {
    let mut table = vec![0u64; TABLE];
    let mut names: BTreeMap<String, u64> = BTreeMap::new();
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 1u64);
    for i in 0..u64::from(iters) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (TABLE - 1);
        acc = match x >> 61 {
            0 => acc.wrapping_add(table[slot]),
            1 => acc ^ table[slot].rotate_left(7),
            2 => acc.wrapping_mul(table[slot] | 1),
            3 => acc.wrapping_sub(x),
            4 => acc.rotate_right((x & 63) as u32),
            5 if acc & 1 == 0 => acc / ((x & 0xff) | 1),
            _ => acc ^ (acc >> 11),
        };
        table[slot] = table[slot].wrapping_add(i ^ acc);
        if i % 64 == 0 {
            *names.entry(format!("v{:x}", x & 0x3ff)).or_insert(0) += acc;
        }
    }
    acc ^ names.len() as u64 ^ table[(acc as usize) & (TABLE - 1)]
}

/// One reference sample: the median of a few kernel runs, ms.
fn reference_ms() -> f64 {
    let runs: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let started = Instant::now();
            black_box(kernel(black_box(ITERS)));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&runs)
}

/// What a wall time measured while the reference read `reference_ms` is
/// multiplied by to give the time at the nominal host speed.
fn speed_factor(reference_ms: f64) -> f64 {
    (NOMINAL_MS / reference_ms).powf(ELASTICITY)
}

/// A timed operation's wall-clock time and its time scaled to the
/// nominal host speed, both ms.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Wall-clock time of the operation's steps, reference samples
    /// excluded.
    pub wall_ms: f64,
    /// `wall_ms` times (`NOMINAL_MS` over the mean reference sample
    /// taken around and between the steps) to the power `ELASTICITY`.
    pub scaled_ms: f64,
}

/// Times operations against the reference kernel.
#[derive(Debug)]
pub struct Clock {
    /// The latest sample. It is the "before" sample of the next
    /// operation: the "after" sample of the previous one, or a fresh one
    /// from [`Clock::sample`].
    last_ms: f64,
    /// Every sample, ms.
    references_ms: Vec<f64>,
}

/// An operation being timed: call [`Lap::between`] between its steps.
#[derive(Debug)]
pub struct Lap<'a> {
    clock: &'a mut Clock,
    step_started: Instant,
    wall: Duration,
    samples_ms: Vec<f64>,
}

impl Lap<'_> {
    /// Ends a step and samples the reference before the next one; the
    /// sample's own time is not counted as the operation's.
    pub fn between(&mut self) {
        self.wall += self.step_started.elapsed();
        self.samples_ms.push(self.clock.sample());
        self.step_started = Instant::now();
    }
}

impl Clock {
    /// A clock, with its first reference sample taken.
    pub fn new() -> Self {
        let first = reference_ms();
        Clock {
            last_ms: first,
            references_ms: vec![first],
        }
    }

    /// Takes a reference sample, records it and returns it, ms.
    pub fn sample(&mut self) -> f64 {
        self.last_ms = reference_ms();
        self.references_ms.push(self.last_ms);
        self.last_ms
    }

    /// Times `op`, which calls [`Lap::between`] between its steps. The
    /// reference is sampled after it too.
    pub fn time_steps<T>(&mut self, op: impl FnOnce(&mut Lap) -> T) -> (T, Timing) {
        let before = self.last_ms;
        let mut lap = Lap {
            clock: self,
            step_started: Instant::now(),
            wall: Duration::ZERO,
            samples_ms: vec![before],
        };
        let out = op(&mut lap);
        lap.between();
        let wall_ms = lap.wall.as_secs_f64() * 1e3;
        let timing = Timing {
            wall_ms,
            scaled_ms: wall_ms * speed_factor(mean(&lap.samples_ms)),
        };
        (out, timing)
    }

    /// Times `op` as one step.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, Timing) {
        self.time_steps(|_| op())
    }

    /// The median reference sample, ms: how fast the host ran.
    pub fn reference_p50_ms(&self) -> f64 {
        median(&self.references_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(5_000), kernel(5_000));
        assert_ne!(kernel(5_000), kernel(5_001));
    }

    #[test]
    fn scaling_uses_the_samples_around_and_between_the_steps() {
        let mut clock = Clock::new();
        let (out, t) = clock.time_steps(|lap| {
            lap.between();
            lap.between();
            7
        });
        assert_eq!(out, 7);
        // The first sample, two between the steps, one after.
        assert_eq!(clock.references_ms.len(), 4);
        let want = t.wall_ms * speed_factor(mean(&clock.references_ms));
        assert!((t.scaled_ms - want).abs() <= 1e-9 * want.max(1.0));
        // The "after" sample is the next operation's "before".
        let (_, t) = clock.time(|| ());
        let last = &clock.references_ms[3..];
        assert!((t.scaled_ms - t.wall_ms * speed_factor(mean(last))).abs() <= 1e-9);
        assert!(clock.reference_p50_ms() > 0.0);
    }

    #[test]
    fn nominal_speed_leaves_times_alone_and_slow_phases_shrink_them() {
        assert_eq!(speed_factor(NOMINAL_MS), 1.0);
        let slow = speed_factor(2.0 * NOMINAL_MS);
        assert!((slow - 0.5f64.powf(ELASTICITY)).abs() < 1e-12);
    }
}
