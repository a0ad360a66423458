//! Host-speed calibration of the end-to-end host times.
//!
//! The benchmark runs on shared virtual machines whose speed drifts as
//! neighbours come and go: identical jobs ran 1.9× apart within minutes,
//! with no system time, page faults or steal to account for it (thread CPU
//! time equals wall time), so neither CPU time nor longer runs remove it.
//! The drift reaches this module's loop too: measured right after each job,
//! its time correlates with the job's at 0.4–0.85 per job, on all four
//! workloads.
//!
//! So every host time an end-to-end metric reports is taken between two
//! calibration samples and scaled to the reference speed,
//! `ns × REFERENCE_NS ÷ mean(sample before, sample after)`: the time the
//! job would have taken on a host where one calibration pass takes
//! [`REFERENCE_NS`]. A long job is timed in segments, each bracketed and
//! scaled on its own ([`Stopwatch::split`]), because the drift moves
//! within a fleet job's 140 ms: bracketed only at its ends, the fleet's
//! `job_ms.p50` still spread by 0.12 over ten runs on a slow host.
//!
//! The loop is the benchmark's own code (hashing, probing and stores into
//! a preallocated table, the kind of work a compiler does), so no change
//! to the program moves it. It allocates nothing, so the heap a job leaves
//! behind does not move it either, and each sample times a second pass
//! over a table the first pass warmed, so the caches a job leaves behind
//! matter little.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::probe::nanos;

/// Host nanoseconds of one calibration pass at the reference speed: about
/// what a pass took on the 2-vCPU shared VM the benchmark was developed on
/// at its quieter times.
pub const REFERENCE_NS: u64 = 800_000;

/// Keys the loop cycles through; the table holds each at most once.
const KEYS: u64 = 8192;
/// Insert-and-look-up steps per pass.
const STEPS: u64 = 20_000;

/// SipHash with fixed keys: the same table layout in every process.
type FixedHasher = BuildHasherDefault<DefaultHasher>;

/// The calibration loop and its preallocated table.
pub struct Calibrator {
    table: HashMap<u64, [u64; 4], FixedHasher>,
}

impl Calibrator {
    /// A calibrator whose table never needs to grow.
    pub fn new() -> Self {
        Calibrator {
            table: HashMap::with_capacity_and_hasher(2 * KEYS as usize, FixedHasher::default()),
        }
    }

    fn pass(&mut self) -> u64 {
        self.table.clear();
        let mut x = 1u64;
        let mut sum = 0u64;
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.table.insert(x % KEYS, [i, x, i ^ x, sum]);
            if let Some(v) = self.table.get(&(i % KEYS)) {
                sum = sum.wrapping_add(v[1]);
            }
        }
        sum
    }

    /// Host nanoseconds of one warm pass.
    pub fn sample(&mut self) -> u64 {
        black_box(self.pass());
        let started = Instant::now();
        black_box(self.pass());
        nanos(started.elapsed())
    }
}

/// Times jobs in segments, each scaled by the calibration samples taken
/// just before and just after it. Sampling time is left out of the job.
pub struct Stopwatch {
    calibrator: Calibrator,
    before: u64,
    started: Instant,
    raw_ns: u64,
    scaled_ns: u64,
    /// Every calibration sample taken, in host nanoseconds.
    pub samples: Vec<u64>,
}

impl Stopwatch {
    /// A stopwatch holding its first calibration sample.
    pub fn new() -> Self {
        let mut calibrator = Calibrator::new();
        let before = calibrator.sample();
        Stopwatch {
            calibrator,
            before,
            started: Instant::now(),
            raw_ns: 0,
            scaled_ns: 0,
            samples: vec![before],
        }
    }

    /// Starts timing a job.
    pub fn start(&mut self) {
        self.raw_ns = 0;
        self.scaled_ns = 0;
        self.started = Instant::now();
    }

    /// Ends the job's current segment, takes a calibration sample and
    /// starts the next segment.
    pub fn split(&mut self) {
        let ns = nanos(self.started.elapsed());
        let after = self.calibrator.sample();
        self.raw_ns += ns;
        self.scaled_ns += at_reference_speed(ns, self.before, after);
        self.before = after;
        self.samples.push(after);
        self.started = Instant::now();
    }

    /// Ends the job: its host time and its time at the reference speed.
    pub fn stop(&mut self) -> (Duration, u64) {
        self.split();
        (Duration::from_nanos(self.raw_ns), self.scaled_ns)
    }
}

/// Host time `ns`, measured between calibration samples `before` and
/// `after`, at the reference speed.
pub fn at_reference_speed(ns: u64, before: u64, after: u64) -> u64 {
    let speed = (before + after).max(1) as f64 / 2.0;
    (ns as f64 * REFERENCE_NS as f64 / speed) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_scale_by_the_bracketing_samples() {
        // A host twice as slow as the reference halves the reported time.
        assert_eq!(
            at_reference_speed(50_000_000, 2 * REFERENCE_NS, 2 * REFERENCE_NS),
            25_000_000
        );
        // The samples before and after the job weigh equally.
        assert_eq!(
            at_reference_speed(30_000_000, REFERENCE_NS, 2 * REFERENCE_NS),
            20_000_000
        );
        assert_eq!(at_reference_speed(7, REFERENCE_NS, REFERENCE_NS), 7);
    }

    #[test]
    fn stopwatch_sums_segments_and_leaves_sampling_out() {
        let mut w = Stopwatch::new();
        let started = Instant::now();
        w.start();
        std::thread::sleep(Duration::from_millis(2));
        w.split();
        std::thread::sleep(Duration::from_millis(2));
        let (raw, scaled) = w.stop();
        let elapsed = started.elapsed();
        assert_eq!(w.samples.len(), 3);
        // Both segments count; the two samples taken after them do not.
        assert!(raw >= Duration::from_millis(4));
        let sampled = Duration::from_nanos(w.samples[1] + w.samples[2]);
        assert!(raw + sampled <= elapsed);
        assert!(scaled > 0);
        w.start();
        let (again, _) = w.stop();
        assert!(again < raw);
        assert_eq!(w.samples.len(), 4);
    }

    #[test]
    fn calibration_never_grows_its_table() {
        let mut c = Calibrator::new();
        let capacity = c.table.capacity();
        assert!(c.sample() > 0);
        assert!(c.sample() > 0);
        assert_eq!(c.table.capacity(), capacity);
        assert!(c.table.len() as u64 <= KEYS);
    }
}
