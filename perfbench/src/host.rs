//! Host facts: peak resident memory and the roofline denominators (a
//! STREAM-style triad and a multiply-add peak), measured in the run that
//! uses them.

use crate::report::{median, Outcome};
use sem_obs::WallTimer;
use std::hint::black_box;

const MIB: f64 = 1024.0 * 1024.0;

/// Peak resident set of this process in MiB (`VmHWM`), if the kernel
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Bytes of the highest-level CPU cache the kernel reports for cpu0 (the
/// figure `lscpu` prints as the last-level cache).
fn last_level_cache_bytes() -> Option<f64> {
    let mut best: Option<(u32, f64)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Ok(level) = std::fs::read_to_string(format!("{dir}/level")) else {
            continue;
        };
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else {
            continue;
        };
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// Parse a sysfs cache size such as `307200K` or `2M`.
fn parse_size(text: &str) -> Option<f64> {
    let (digits, scale) = match text.chars().last()? {
        'K' => (&text[..text.len() - 1], 1024.0),
        'M' => (&text[..text.len() - 1], MIB),
        'G' => (&text[..text.len() - 1], 1024.0 * MIB),
        _ => (text, 1.0),
    };
    digits.parse::<f64>().ok().map(|v| v * scale)
}

/// Bytes of memory the kernel says are available without swapping.
fn available_memory_bytes() -> Option<f64> {
    let info = std::fs::read_to_string("/proc/meminfo").ok()?;
    let kib: f64 = info
        .lines()
        .find_map(|line| line.strip_prefix("MemAvailable:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024.0)
}

/// The measured host roofline: single-thread triad bandwidth and
/// multiply-add peak.  `triad_gbs` is `None` when the triad arrays could not
/// be made large enough to defeat the last-level cache.
pub struct Roofline {
    pub triad_gbs: Option<f64>,
    pub fma_gflops: f64,
}

impl Roofline {
    /// `perf_model`'s roofline bound at `flop_per_byte`, when both
    /// denominators were measured.
    pub fn bound_gflops(&self, flop_per_byte: f64) -> Option<f64> {
        self.triad_gbs
            .map(|gbs| perf_model::roofline_gflops(self.fma_gflops, gbs, flop_per_byte))
    }
}

/// Measure the roofline denominators and record them on `outcome`.
///
/// The triad `a = b + s·c` runs over three arrays whose total is four times
/// the last-level cache; bytes are computed as 24 per element (two reads,
/// one write, no write-allocate).  It is skipped, leaving only operations
/// per byte, when the cache size is unknown or the arrays would take more
/// than a quarter of available memory.
pub fn measure_roofline(outcome: &mut Outcome) -> Roofline {
    let fma_gflops = fma_peak_gflops();
    outcome.set("host.fma_gflops", fma_gflops);
    let llc = last_level_cache_bytes();
    let available = available_memory_bytes();
    let triad_gbs = match (llc, available) {
        (Some(llc), Some(available)) if 4.0 * llc <= 0.25 * available => {
            let elements = (4.0 * llc / 24.0).ceil() as usize;
            outcome.set("host.llc_mib", llc / MIB);
            outcome.set("host.triad_mib", 24.0 * elements as f64 / MIB);
            let gbs = triad_gbs(elements);
            outcome.note(format!(
                "triad: 3 arrays x {:.0} MiB = {:.0} MiB against a {:.0} MiB last-level cache; \
                 bytes computed from array sizes (24 B/element), 1 thread: {gbs:.2} GB/s",
                8.0 * elements as f64 / MIB,
                24.0 * elements as f64 / MIB,
                llc / MIB
            ));
            Some(gbs)
        }
        _ => {
            outcome.note(format!(
                "triad skipped (last-level cache {llc:?} B, available memory {available:?} B): \
                 roofline fractions are not reported, only operations per byte"
            ));
            None
        }
    };
    if let Some(gbs) = triad_gbs {
        outcome.set("host.triad_gbs", gbs);
    }
    outcome.note(format!(
        "multiply-add peak: 1 thread, 32 independent chains, default target features: {fma_gflops:.2} GFLOP/s"
    ));
    Roofline {
        triad_gbs,
        fma_gflops,
    }
}

/// `a = b + s·c` over the three arrays.
fn triad(a: &mut [f64], b: &[f64], c: &[f64]) {
    let scalar = black_box(3.0_f64);
    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
        *a = b + scalar * c;
    }
    black_box(a);
}

/// Independent multiply-add chains kept in registers.
const CHAINS: usize = 32;

/// `steps` rounds of a multiply-add on each of `CHAINS` chains.
fn multiply_adds(steps: usize) {
    let mut acc = black_box([1.0_f64; CHAINS]);
    let scale = black_box(0.999_999_9_f64);
    let shift = black_box(1e-9_f64);
    for _ in 0..steps {
        for value in &mut acc {
            *value = *value * scale + shift;
        }
    }
    black_box(&acc);
}

/// Median single-thread triad bandwidth over five passes, in GB/s.
fn triad_gbs(elements: usize) -> f64 {
    let mut a = vec![0.0_f64; elements];
    let b = vec![1.0_f64; elements];
    let c = vec![2.0_f64; elements];
    let mut rates = Vec::with_capacity(5);
    // One untimed pass faults every page in.
    for pass in 0..6 {
        let timer = WallTimer::start();
        triad(&mut a, &b, &c);
        let seconds = timer.elapsed_wall_seconds();
        if pass > 0 {
            rates.push(24.0 * elements as f64 / seconds / 1e9);
        }
    }
    median(&rates)
}

/// Median single-thread multiply-add rate over five bursts, in GFLOP/s
/// (two flops per multiply-add, compiled for the build's default target).
fn fma_peak_gflops() -> f64 {
    const STEPS: usize = 4_000_000;
    let mut rates = Vec::with_capacity(5);
    for _ in 0..5 {
        let timer = WallTimer::start();
        multiply_adds(STEPS);
        let seconds = timer.elapsed_wall_seconds();
        rates.push(2.0 * (CHAINS * STEPS) as f64 / seconds / 1e9);
    }
    median(&rates)
}

/// Seconds the speed mix takes on the reference host the `_ref` metrics
/// are expressed on: one core of the 2-core machine the benchmark was
/// defined on, in a quiet period.  Only a scale: comparisons between two
/// commits do not depend on it.
const REFERENCE_SECONDS: f64 = 2.6e-3;

/// How fast the shared host runs right now, from a fixed multiply-add plus
/// triad mix that belongs to the benchmark (so no change to the program
/// moves it), run on as many threads as the workload keeps busy.
/// Neighbours on a shared machine slow every run by up to a third for
/// minutes at a time; wall seconds times this factor are seconds on the
/// reference host, which is what the `_ref` metrics report.
pub struct HostSpeed {
    /// One set of triad arrays per thread.
    arrays: Vec<[Vec<f64>; 3]>,
}

impl HostSpeed {
    /// Triad arrays of 4 MiB each, about the CG working set.
    const ELEMENTS: usize = 1 << 19;
    const PASSES: usize = 4;
    const STEPS: usize = 150_000;

    pub fn new(threads: usize) -> Self {
        let arrays = (0..threads)
            .map(|_| {
                [
                    vec![0.0; Self::ELEMENTS],
                    vec![1.0; Self::ELEMENTS],
                    vec![2.0; Self::ELEMENTS],
                ]
            })
            .collect();
        Self { arrays }
    }

    /// The host's current speed relative to the reference host, averaged
    /// over the threads: 1.0 there, 0.75 when the mix takes 4/3 of its
    /// reference time.
    pub fn factor(&mut self) -> f64 {
        let threads = self.arrays.len() as f64;
        std::thread::scope(|scope| {
            let runs: Vec<_> = self
                .arrays
                .iter_mut()
                .map(|[a, b, c]| {
                    scope.spawn(move || {
                        let timer = WallTimer::start();
                        multiply_adds(Self::STEPS);
                        for _ in 0..Self::PASSES {
                            triad(a, b, c);
                        }
                        REFERENCE_SECONDS / timer.elapsed_wall_seconds()
                    })
                })
                .collect();
            runs.into_iter()
                .map(|run| run.join().expect("host speed thread panicked"))
                .sum::<f64>()
                / threads
        })
    }

    /// Time `work` in wall seconds and in reference-host seconds, sampling
    /// the host's speed just before and just after it.
    pub fn time<R>(&mut self, work: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = self.factor();
        let timer = WallTimer::start();
        let result = work();
        let wall = timer.elapsed_wall_seconds();
        let after = self.factor();
        (result, wall, wall * 0.5 * (before + after))
    }
}
