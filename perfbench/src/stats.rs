//! Sample statistics, process memory, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Latency samples in nanoseconds, kept as a log-linear histogram so the
/// harness's memory stays fixed however many operations a run times.
///
/// Values below 128 ns have a bucket each; above that, every power of two
/// is split into 128 buckets (under 0.8 % wide). Each bucket keeps its
/// count and the sum of its values, and a percentile reads the mean of
/// the bucket holding its rank.
#[derive(Debug, Clone)]
pub struct Samples {
    counts: Vec<u64>,
    sums: Vec<u64>,
    len: u64,
    total_ns: u64,
}

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = SUB * (64 - SUB_BITS as usize + 1);

fn bucket(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    let sub = (ns >> (exp - SUB_BITS)) as usize - SUB;
    SUB * (exp - SUB_BITS + 1) as usize + sub
}

impl Default for Samples {
    fn default() -> Self {
        Samples {
            counts: vec![0; BUCKETS],
            sums: vec![0; BUCKETS],
            len: 0,
            total_ns: 0,
        }
    }
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        let b = bucket(ns);
        self.counts[b] += 1;
        self.sums[b] = self.sums[b].saturating_add(ns);
        self.len += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
    }

    /// Runs `f`, records its wall time, and returns its result.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = std::hint::black_box(f());
        self.push(elapsed_ns(started));
        out
    }

    /// Adds `other`'s samples.
    pub fn merge(&mut self, other: &Samples) {
        for (i, (count, sum)) in other.counts.iter().zip(&other.sums).enumerate() {
            self.counts[i] += count;
            self.sums[i] = self.sums[i].saturating_add(*sum);
        }
        self.len += other.len;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    /// Nearest-rank percentile in nanoseconds (`p` in 0..=1); 0 when empty.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let rank = ((p * self.len as f64).ceil() as u64).clamp(1, self.len);
        let mut seen = 0;
        for (count, sum) in self.counts.iter().zip(&self.sums) {
            seen += count;
            if seen >= rank {
                return *sum as f64 / *count as f64;
            }
        }
        unreachable!("the counts add up to len")
    }

    pub fn p50_us(&self) -> f64 {
        self.percentile_ns(0.50) / 1e3
    }

    pub fn p99_us(&self) -> f64 {
        self.percentile_ns(0.99) / 1e3
    }

    /// Median in seconds.
    pub fn median_s(&self) -> f64 {
        self.percentile_ns(0.5) / 1e9
    }

    /// Median in milliseconds.
    pub fn median_ms(&self) -> f64 {
        self.percentile_ns(0.5) / 1e6
    }

    /// Operations per second of a closed loop whose operations took these
    /// times back to back.
    pub fn ops_per_s(&self) -> f64 {
        self.len as f64 * 1e9 / self.total_ns.max(1) as f64
    }
}

pub fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What [`calibration_ns`] takes on the 2-core machine the benchmark was
/// tuned on, in its fast state.
pub const CALIBRATION_REF_NS: f64 = 250_000.0;

/// Scales measured times to the speed of the reference machine.
///
/// The benchmark's machine is shared: the same work ran anywhere from 1×
/// to 1.6× slower from one stretch of seconds to the next, as other
/// tenants came and went, and no reading of raw times stayed within a
/// 25 % bound across runs. So the benchmark times a fixed calibration
/// computation every few operations and multiplies each latency by
/// `CALIBRATION_REF_NS / calibration time`. A program change moves the
/// scaled times exactly as it moves the raw ones, because the calibration
/// never runs program code; the machine's drift largely cancels. The raw
/// figures are printed in the run's notes.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    kernel_ns: u64,
}

impl Calibration {
    /// Times the calibration computation (the fastest of three runs).
    pub fn measure() -> Calibration {
        let kernel_ns = (0..3).map(|_| calibration_ns()).min().unwrap_or(1).max(1);
        Calibration { kernel_ns }
    }

    pub fn kernel_ns(self) -> u64 {
        self.kernel_ns
    }

    /// `ns` at the reference machine's speed.
    pub fn apply(self, ns: u64) -> u64 {
        (ns as f64 * CALIBRATION_REF_NS / self.kernel_ns as f64) as u64
    }
}

/// Times a fixed calibration computation that does not touch the
/// program: xorshift keys into a `BTreeMap`, a sort of 2048 floats, and a
/// pass of float arithmetic over both.
fn calibration_ns() -> u64 {
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut map = BTreeMap::new();
    let mut values = Vec::with_capacity(2048);
    for i in 0..2048u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        values.push((x % 10_000) as f64 * 0.5 + i as f64);
        map.insert(x % 4096, i);
    }
    values.sort_by(f64::total_cmp);
    let mut acc = 0.0;
    for pair in values.windows(2) {
        acc += (pair[1] - pair[0]).abs().sqrt();
    }
    for (k, v) in &map {
        acc += *k as f64 / (*v as f64 + 1.0);
    }
    std::hint::black_box(acc);
    elapsed_ns(started)
}

/// The run's raw figures, for the notes: scaled metrics are reported,
/// and these show what the machine actually did.
pub fn calibration_note(ops: &Samples, setup: &Samples, kernel: &Samples) -> String {
    format!(
        "{} timed operations; raw p50 {:.1} us, raw p99 {:.1} us, raw set-up median {:.6} s; \
         calibration kernel median {:.1} us (reference {:.1} us)",
        ops.len(),
        ops.p50_us(),
        ops.p99_us(),
        setup.median_s(),
        kernel.p50_us(),
        CALIBRATION_REF_NS / 1e3
    )
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a, for input and source hashes in the run header.
pub fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    bytes.iter().fold(seed ^ 0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Named metrics with units, sorted by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_owned(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    pub fn contains(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, (value, unit))) in self.values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// What one run reports: its checks, its operation counts, its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed correctness checks, one line each; empty when all passed.
    pub check_failures: Vec<String>,
    /// Lines for the run log (sample counts and the like).
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Operations that executed ÷ operations attempted.
    pub fn ok_share(&self) -> f64 {
        self.attempted.saturating_sub(self.failed) as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The result line. A run that failed a check carries no metrics.
    pub fn result_line(&self) -> String {
        let metrics = if self.correct() {
            self.metrics.to_json()
        } else {
            "{}".to_owned()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        assert_eq!(s.p50_us(), 0.0);
        for ns in 1..=100 {
            s.push(ns);
        }
        assert_eq!(s.percentile_ns(0.5), 50.0);
        assert_eq!(s.percentile_ns(0.99), 99.0);
        assert_eq!(s.percentile_ns(1.0), 100.0);
        assert_eq!(s.ops_per_s(), 100.0 * 1e9 / 5050.0);
    }

    #[test]
    fn large_values_land_within_a_bucket_of_their_rank() {
        let mut s = Samples::default();
        for ns in (1..=1000).map(|i| i * 1_003) {
            s.push(ns);
        }
        let p99 = s.percentile_ns(0.99);
        assert!((p99 / (990.0 * 1_003.0) - 1.0).abs() < 0.008, "{p99}");
        assert!(bucket(u64::MAX) < BUCKETS);
    }

    #[test]
    fn calibration_scales_to_the_reference_speed() {
        let slow = Calibration {
            kernel_ns: 2 * CALIBRATION_REF_NS as u64,
        };
        assert_eq!(slow.apply(1_000), 500);
        assert!(Calibration::measure().kernel_ns() > 0);
    }
}
