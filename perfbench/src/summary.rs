//! Summary statistics of one run: per-unit medians, iteration tiers and
//! layer shares. Percentiles are `incline_vm::stats::percentile`
//! (nearest rank), the repository's one implementation.

use incline_vm::stats::percentile;

/// Geometric mean of positive values; 0 for an empty set.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let logs: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (logs / values.len() as f64).exp()
}

/// Nearest-rank median.
pub fn median(series: &[u64]) -> u64 {
    percentile(series, 0.5)
}

/// Host samples of one timed loop, kept per unit (program, tenant mix or
/// corpus entry) so that every statistic weighs each unit equally,
/// whatever mix of units the loop happened to finish.
#[derive(Clone, Debug, Default)]
pub struct UnitSamples {
    /// Per unit: host nanoseconds of each job.
    pub job_ns: Vec<Vec<u64>>,
    /// Per unit: bytes requested from the allocator by each job.
    pub alloc_bytes: Vec<Vec<u64>>,
    /// Per unit: peak live-heap growth during each job.
    pub peak_bytes: Vec<Vec<u64>>,
}

impl UnitSamples {
    /// Empty sample sets for `units` units.
    pub fn new(units: usize) -> Self {
        UnitSamples {
            job_ns: vec![Vec::new(); units],
            alloc_bytes: vec![Vec::new(); units],
            peak_bytes: vec![Vec::new(); units],
        }
    }

    /// Records one job of `unit`.
    pub fn push(&mut self, unit: usize, ns: u64, alloc: u64, peak: u64) {
        self.job_ns[unit].push(ns);
        self.alloc_bytes[unit].push(alloc);
        self.peak_bytes[unit].push(peak);
    }

    /// Jobs recorded.
    pub fn jobs(&self) -> usize {
        self.job_ns.iter().map(Vec::len).sum()
    }

    fn unit_medians(series: &[Vec<u64>]) -> Vec<u64> {
        series
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(s))
            .collect()
    }

    /// Jobs per second of one pass over the units at their median job
    /// time: `units / Σ median`.
    pub fn jobs_per_s(&self) -> f64 {
        let medians = Self::unit_medians(&self.job_ns);
        let total: u64 = medians.iter().sum();
        if total == 0 {
            return 0.0;
        }
        medians.len() as f64 * 1e9 / total as f64
    }

    /// The typical job: geometric mean over units of the unit's median
    /// job time, in ms.
    pub fn job_ms_p50(&self) -> f64 {
        let medians: Vec<f64> = Self::unit_medians(&self.job_ns)
            .into_iter()
            .map(|ns| ns as f64 / 1e6)
            .collect();
        geomean(&medians)
    }

    /// The typical job scaled by the pooled `q`-quantile of every job's
    /// time relative to its unit's median, in ms. Pooling gives the tail
    /// enough samples even when each unit has only a few jobs.
    pub fn job_ms_tail(&self, q: f64) -> f64 {
        let mut ratios = Vec::with_capacity(self.jobs());
        for series in self.job_ns.iter().filter(|s| !s.is_empty()) {
            let m = median(series).max(1) as f64;
            ratios.extend(series.iter().map(|&ns| (ns as f64 / m * 1e6) as u64));
        }
        self.job_ms_p50() * percentile(&ratios, q) as f64 / 1e6
    }

    /// Mean over units of the unit's median allocated bytes, in MB.
    pub fn alloc_mb_per_job(&self) -> f64 {
        let medians = Self::unit_medians(&self.alloc_bytes);
        if medians.is_empty() {
            return 0.0;
        }
        medians.iter().sum::<u64>() as f64 / medians.len() as f64 / 1e6
    }

    /// Mean over units of the unit's median peak live-heap growth during
    /// a job, in MB.
    pub fn peak_heap_mb(&self) -> f64 {
        let medians = Self::unit_medians(&self.peak_bytes);
        if medians.is_empty() {
            return 0.0;
        }
        medians.iter().sum::<u64>() as f64 / medians.len() as f64 / 1e6
    }
}

/// One repetition of a session, timed from outside `Machine::run`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterSample {
    /// Host nanoseconds of the `Machine::run` call.
    pub ns: u64,
    /// Growth of `CompilationReport::compile_wall_nanos` over the call.
    pub compile_ns: u64,
    /// `RunOutcome::exec_cycles` of the call.
    pub cycles: u64,
    /// Whether compiled code was installed when the call started.
    pub compiled: bool,
}

/// Host time and modeled cycles of the repetitions run in one tier.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TierTime {
    /// Host nanoseconds spent executing (compile wall time removed).
    pub ns: u64,
    /// Modeled execution cycles.
    pub cycles: u64,
}

impl TierTime {
    /// Host nanoseconds per modeled cycle; 0 when nothing ran.
    pub fn ns_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ns as f64 / self.cycles as f64
        }
    }
}

/// Splits repetitions into the interpreted tier (no compiled code yet
/// installed) and the compiled tier, removing each repetition's compile
/// wall time from its host time.
pub fn split_iterations(iters: &[IterSample]) -> (TierTime, TierTime) {
    let mut interp = TierTime::default();
    let mut compiled = TierTime::default();
    for it in iters {
        let tier = if it.compiled {
            &mut compiled
        } else {
            &mut interp
        };
        tier.ns += it.ns.saturating_sub(it.compile_ns);
        tier.cycles += it.cycles;
    }
    (interp, compiled)
}

/// Shares of job wall time: each disjoint layer's time over `total`, plus
/// `other`, the remainder no layer covers. The shares and `other` sum to 1
/// by construction; `other` goes negative only if the layer timings
/// overlap, which is a measurement bug worth seeing.
pub fn shares(total: u64, layers: &[(&'static str, u64)]) -> (Vec<(&'static str, f64)>, f64) {
    if total == 0 {
        return (layers.iter().map(|&(n, _)| (n, 0.0)).collect(), 1.0);
    }
    let out: Vec<(&'static str, f64)> = layers
        .iter()
        .map(|&(n, ns)| (n, ns as f64 / total as f64))
        .collect();
    let covered: f64 = out.iter().map(|(_, s)| s).sum();
    (out, 1.0 - covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[7.0]) - 7.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn iterations_split_by_tier_without_compile_time() {
        let iters = [
            IterSample {
                ns: 1_000,
                compile_ns: 400,
                cycles: 300,
                compiled: false,
            },
            IterSample {
                ns: 500,
                compile_ns: 0,
                cycles: 200,
                compiled: false,
            },
            IterSample {
                ns: 300,
                compile_ns: 100,
                cycles: 400,
                compiled: true,
            },
        ];
        let (interp, compiled) = split_iterations(&iters);
        assert_eq!(
            interp,
            TierTime {
                ns: 1_100,
                cycles: 500
            }
        );
        assert_eq!(
            compiled,
            TierTime {
                ns: 200,
                cycles: 400
            }
        );
        assert!((interp.ns_per_cycle() - 2.2).abs() < 1e-9);
        assert!((compiled.ns_per_cycle() - 0.5).abs() < 1e-9);
        assert_eq!(TierTime::default().ns_per_cycle(), 0.0);
    }

    #[test]
    fn shares_and_other_sum_to_one() {
        let (layers, other) = shares(1_000, &[("a", 250), ("b", 600), ("c", 0)]);
        let sum: f64 = layers.iter().map(|(_, s)| s).sum::<f64>() + other;
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((other - 0.15).abs() < 1e-12);
        assert_eq!(layers[1], ("b", 0.6));
        let (_, all_other) = shares(0, &[("a", 0)]);
        assert_eq!(all_other, 1.0);
    }

    #[test]
    fn unit_statistics_weigh_units_equally() {
        let mut s = UnitSamples::new(2);
        // Unit 0: three fast jobs; unit 1: one slow job.
        for ns in [1_000_000, 1_200_000, 1_100_000] {
            s.push(0, ns, 2_000_000, 500_000);
        }
        s.push(1, 4_000_000, 6_000_000, 900_000);
        assert_eq!(s.jobs(), 4);
        // Medians 1.1 ms and 4 ms: a pass takes 5.1 ms for two jobs.
        assert!((s.jobs_per_s() - 2.0 / 5.1e-3).abs() < 1e-6);
        assert!((s.job_ms_p50() - (1.1f64 * 4.0).sqrt()).abs() < 1e-9);
        // Relative times: 1.0, 1.0909, 1.0 (unit 0) and 1.0 (unit 1).
        let tail = s.job_ms_tail(0.9) / s.job_ms_p50();
        assert!((tail - 1.2 / 1.1).abs() < 1e-5);
        assert!((s.alloc_mb_per_job() - 4.0).abs() < 1e-9);
        assert!((s.peak_heap_mb() - 0.7).abs() < 1e-9);
    }
}
