//! Host-speed calibration. On a shared host the speed of this guest's
//! CPUs drifts with what other guests run, and the hypervisor reports
//! none of it as steal: on the 2-vCPU VM this benchmark was written on,
//! a fixed CPU-bound loop took from 1x to 1.9x its fastest time within
//! one minute, and a run's median solve latency moved with it by up to
//! a quarter from one run to the next.
//!
//! So every timed stretch is bracketed, with the program idle, by a
//! fixed reference kernel run on every CPU at once, and the stretch's
//! times are reported at reference speed: multiplied by
//! `REFERENCE_NS / k`, where `k` is the mean kernel time of the two
//! brackets. The program does no work while the kernel runs, so a change
//! to the program cannot move `k`, and a slower program still reads
//! slower. Raw times are printed beside the scaled ones.

use crate::stats::median_f64;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in ns, that counts as reference speed: about the fastest
/// one pass took on the VM above. Only a unit: scaled times are raw
/// times at a host whose kernel pass takes this long.
pub const REFERENCE_NS: f64 = 600_000.0;

/// Elements the kernel sorts: 256 KiB, within a core's L2.
const SORT_LEN: usize = 32 * 1024;

/// Passes per CPU in one sample; the fastest counts, so a single
/// preemption does not move the sample.
const PASSES: usize = 3;

/// CPUs the kernel runs on at once, at most.
const MAX_CPUS: usize = 4;

/// One kernel pass: fill a buffer from a fixed xorshift stream and sort
/// it. Returns its elapsed nanoseconds.
fn pass(buf: &mut Vec<u64>) -> u64 {
    let start = Instant::now();
    buf.clear();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..SORT_LEN {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        buf.push(x);
    }
    buf.sort_unstable();
    black_box(&buf);
    start.elapsed().as_nanos() as u64
}

fn fastest_pass() -> u64 {
    let mut buf = Vec::with_capacity(SORT_LEN);
    (0..PASSES).map(|_| pass(&mut buf)).min().unwrap_or(1).max(1)
}

/// One sample: the kernel on `cpus` threads at once (the guest's CPUs
/// can run at different speeds), mean of each thread's fastest pass.
fn sample(cpus: usize) -> f64 {
    let cpus = cpus.clamp(1, MAX_CPUS);
    let total: u64 = std::thread::scope(|scope| {
        let others: Vec<_> = (1..cpus).map(|_| scope.spawn(fastest_pass)).collect();
        let mine = fastest_pass();
        mine + others.into_iter().map(|h| h.join().expect("kernel thread")).sum::<u64>()
    });
    total as f64 / cpus as f64
}

/// Brackets timed stretches with kernel samples. Consecutive stretches
/// share a bracket: the sample after one is the sample before the next.
#[derive(Debug)]
pub struct Calibrator {
    cpus: usize,
    last: f64,
    /// Every sample taken, for the run's notes.
    pub samples: Vec<f64>,
}

impl Calibrator {
    /// A calibrator for `cpus` CPUs; it samples nothing yet.
    pub fn new(cpus: usize) -> Self {
        Self { cpus, last: f64::NAN, samples: Vec::new() }
    }

    /// Opens a stretch: takes its first bracket.
    pub fn refresh(&mut self) {
        self.last = sample(self.cpus);
        self.samples.push(self.last);
    }

    /// Closes the stretch opened by the last sample: returns the factor
    /// that scales its times to reference speed, and opens the next one.
    pub fn close(&mut self) -> f64 {
        let before = self.last;
        self.refresh();
        2.0 * REFERENCE_NS / (before + self.last)
    }

    /// Runs `work` between fresh brackets: its result, its raw seconds,
    /// and the factor to scale them by.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64, f64) {
        self.refresh();
        let start = Instant::now();
        let out = work();
        let raw = start.elapsed().as_secs_f64();
        (out, raw, self.close())
    }
}

/// Timings of one kind, raw and scaled to reference speed.
#[derive(Debug, Default)]
pub struct Timings {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Timings {
    /// Adds a raw timing taken in a stretch whose factor is `factor`.
    pub fn push(&mut self, raw: f64, factor: f64) {
        self.raw.push(raw);
        self.scaled.push(raw * factor);
    }

    pub fn len(&self) -> usize {
        self.raw.len()
    }

    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Median at reference speed.
    pub fn scaled(&self) -> f64 {
        median_f64(&self.scaled)
    }

    /// Median as measured.
    pub fn raw(&self) -> f64 {
        median_f64(&self.raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_are_positive_and_finite() {
        let mut c = Calibrator::new(2);
        let (value, raw, factor) = c.time(|| 6 * 7);
        assert_eq!(value, 42);
        assert!(raw >= 0.0);
        assert!(factor.is_finite() && factor > 0.0);
        assert!(c.close().is_finite());
        assert_eq!(c.samples.len(), 3);
        let mut t = Timings::default();
        t.push(2.0, 0.5);
        t.push(4.0, 0.5);
        t.push(9.0, 2.0);
        assert_eq!((t.len(), t.raw(), t.scaled()), (3, 4.0, 2.0));
    }
}
