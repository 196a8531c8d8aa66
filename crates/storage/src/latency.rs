//! Simulated cloud-network latency model.
//!
//! The paper's Figure 2 measures end-to-end retrieval latency between a GCP
//! virtual machine and GCP Cloud Storage and observes an *affine*
//! relationship: latency stays around ~50 ms until the fetch size passes
//! ~2 MB, then grows linearly with size. We model each request as
//!
//! ```text
//! latency(bytes) = first_byte + bytes / bandwidth
//! ```
//!
//! where `first_byte` is sampled from a lognormal distribution (network
//! round-trip jitter) optionally inflated by a Pareto-distributed long tail
//! (§IV-G's "Long Tail Problem"), and `bandwidth` is the link bandwidth. A
//! [`RegionProfile`] scales both terms to reproduce the cross-region
//! experiments (Figures 7, 12, 13).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A simulated duration on the virtual clock, stored with nanosecond
/// resolution.
///
/// `SimDuration` deliberately mirrors a small slice of [`std::time::Duration`]
/// but is a distinct type so that *simulated* time can never be confused with
/// wall-clock time in the engine code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Construct from fractional seconds. Negative or non-finite inputs
    /// saturate to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Total nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration as fractional milliseconds — the unit every figure in the
    /// paper reports.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two durations (used to combine parallel requests).
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for SimDuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// One sampled request latency, split into the two phases the paper's
/// tcpdump analysis distinguishes (§V-B0c): *wait* (time to first byte) and
/// *download* (transfer time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySample {
    /// Time to first byte — the round-trip "wait time".
    pub first_byte: SimDuration,
    /// Transfer time — `bytes / bandwidth`.
    pub transfer: SimDuration,
}

impl LatencySample {
    /// Total request latency.
    pub fn total(self) -> SimDuration {
        self.first_byte + self.transfer
    }

    /// A zero-latency sample (local backends).
    pub const ZERO: LatencySample = LatencySample {
        first_byte: SimDuration::ZERO,
        transfer: SimDuration::ZERO,
    };
}

/// Region placement of the compute node relative to the storage bucket.
///
/// The paper hosts VMs in Iowa (`us-central1-c`), London (`europe-west2-c`),
/// and Singapore (`asia-southeast1-b`) against a US multi-region bucket and
/// observes ~2.4–3.3× (London) and ~6.5–8.2× (Singapore) slowdowns. We model
/// a region as a multiplier on first-byte latency and a divisor on bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionProfile {
    /// Human-readable name, e.g. `"us-central1-c"`.
    pub name: String,
    /// Multiplier applied to the first-byte latency.
    pub first_byte_mult: f64,
    /// Divisor applied to the link bandwidth.
    pub bandwidth_div: f64,
}

impl RegionProfile {
    /// Compute co-located with the bucket (paper's within-region setup).
    pub fn same_region() -> Self {
        RegionProfile {
            name: "us-central1-c".into(),
            first_byte_mult: 1.0,
            bandwidth_div: 1.0,
        }
    }

    /// Transatlantic placement (paper's `europe-west2-c`, ~3× slower RTT).
    pub fn london() -> Self {
        RegionProfile {
            name: "europe-west2-c".into(),
            first_byte_mult: 3.0,
            bandwidth_div: 2.0,
        }
    }

    /// Transpacific placement (paper's `asia-southeast1-b`, ~7× slower RTT).
    pub fn singapore() -> Self {
        RegionProfile {
            name: "asia-southeast1-b".into(),
            first_byte_mult: 7.0,
            bandwidth_div: 3.0,
        }
    }

    /// The paper's three-region spread (Figures 7, 12, 13) in nearness
    /// order: same-region, transatlantic, transpacific. This is the
    /// default placement for [`crate::ReplicatedStore`] tests and the
    /// cross-region bench.
    pub fn paper_spread() -> Vec<Self> {
        vec![Self::same_region(), Self::london(), Self::singapore()]
    }
}

/// The affine cloud-storage latency model of the paper's Figure 2.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Median time-to-first-byte within region, in seconds.
    first_byte_median_s: f64,
    /// Sigma of the lognormal jitter on the first-byte time.
    first_byte_sigma: f64,
    /// Link bandwidth in bytes per second.
    bandwidth_bps: f64,
    /// Probability that a request falls into the long tail.
    tail_probability: f64,
    /// Pareto shape parameter for tail inflation (smaller = heavier tail).
    tail_alpha: f64,
    /// Region multipliers.
    region: RegionProfile,
    /// Fixed per-request CPU/dispatch overhead in seconds.
    request_overhead_s: f64,
}

impl LatencyModel {
    /// A model calibrated against the paper's Figure 2: ~50 ms flat up to
    /// ~2 MB, linear afterwards (≈40 MB/s effective single-stream
    /// bandwidth so that a 2 MB fetch costs ≈50 ms of transfer — the knee).
    pub fn gcs_like() -> Self {
        LatencyModel {
            first_byte_median_s: 0.045,
            first_byte_sigma: 0.25,
            bandwidth_bps: 40.0 * 1024.0 * 1024.0,
            tail_probability: 0.0,
            tail_alpha: 1.5,
            region: RegionProfile::same_region(),
            request_overhead_s: 0.001,
        }
    }

    /// A zero-latency model (useful to disable simulation in tests).
    pub fn instantaneous() -> Self {
        LatencyModel {
            first_byte_median_s: 0.0,
            first_byte_sigma: 0.0,
            bandwidth_bps: f64::INFINITY,
            tail_probability: 0.0,
            tail_alpha: 1.5,
            region: RegionProfile::same_region(),
            request_overhead_s: 0.0,
        }
    }

    /// Start building a custom model from the GCS-like defaults.
    pub fn builder() -> LatencyModelBuilder {
        LatencyModelBuilder {
            model: Self::gcs_like(),
        }
    }

    /// The region profile currently applied.
    pub fn region(&self) -> &RegionProfile {
        &self.region
    }

    /// Replace the region profile (used by the cross-region experiments).
    pub fn with_region(mut self, region: RegionProfile) -> Self {
        self.region = region;
        self
    }

    /// Effective bandwidth in bytes/second after the region divisor.
    pub fn effective_bandwidth_bps(&self) -> f64 {
        self.bandwidth_bps / self.region.bandwidth_div
    }

    /// Median first-byte latency after the region multiplier.
    pub fn effective_first_byte_median(&self) -> SimDuration {
        SimDuration::from_secs_f64(
            (self.first_byte_median_s + self.request_overhead_s) * self.region.first_byte_mult,
        )
    }

    /// Sample the latency of a single request of `bytes` bytes.
    pub fn sample(&self, bytes: u64, rng: &mut StdRng) -> LatencySample {
        let first_byte = self.sample_first_byte(rng);
        let transfer = self.transfer_time(bytes);
        LatencySample {
            first_byte,
            transfer,
        }
    }

    /// Sample only the time-to-first-byte component.
    pub fn sample_first_byte(&self, rng: &mut StdRng) -> SimDuration {
        if self.first_byte_median_s <= 0.0 && self.request_overhead_s <= 0.0 {
            return SimDuration::ZERO;
        }
        // Lognormal jitter via Box–Muller: median * exp(sigma * z).
        let z = box_muller(rng);
        let mut fb = self.first_byte_median_s * (self.first_byte_sigma * z).exp();
        // Long tail: with probability `tail_probability`, inflate by a
        // Pareto(alpha) factor >= 1 (inverse-CDF sampling).
        if self.tail_probability > 0.0 && rng.gen::<f64>() < self.tail_probability {
            let u: f64 = rng.gen::<f64>().max(1e-12);
            let pareto = u.powf(-1.0 / self.tail_alpha);
            fb *= pareto;
        }
        fb = (fb + self.request_overhead_s) * self.region.first_byte_mult;
        SimDuration::from_secs_f64(fb)
    }

    /// Deterministic transfer time for `bytes` bytes at the effective
    /// bandwidth.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        let bw = self.effective_bandwidth_bps();
        if !bw.is_finite() || bw <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 / bw)
    }

    /// Transfer time for `bytes` spread over `streams` concurrent requests
    /// sharing the link. The paper observes (Fig 10c) that fetching L
    /// superposts in parallel still contends for bandwidth, so the combined
    /// transfer term is `total_bytes / bandwidth` regardless of stream
    /// count; a small per-stream dispatch overhead grows with fan-out.
    pub fn contended_transfer_time(&self, total_bytes: u64, streams: usize) -> SimDuration {
        let base = self.transfer_time(total_bytes);
        let dispatch =
            SimDuration::from_secs_f64(self.request_overhead_s * streams.saturating_sub(1) as f64);
        base + dispatch
    }
}

/// Builder for [`LatencyModel`].
#[derive(Debug, Clone)]
pub struct LatencyModelBuilder {
    model: LatencyModel,
}

impl LatencyModelBuilder {
    /// Set the median time-to-first-byte (seconds).
    pub fn first_byte_median_s(mut self, v: f64) -> Self {
        self.model.first_byte_median_s = v;
        self
    }

    /// Set the lognormal sigma of first-byte jitter.
    pub fn first_byte_sigma(mut self, v: f64) -> Self {
        self.model.first_byte_sigma = v;
        self
    }

    /// Set the link bandwidth in bytes per second.
    pub fn bandwidth_bps(mut self, v: f64) -> Self {
        self.model.bandwidth_bps = v;
        self
    }

    /// Enable a Pareto long tail with the given probability and shape.
    pub fn long_tail(mut self, probability: f64, alpha: f64) -> Self {
        self.model.tail_probability = probability;
        self.model.tail_alpha = alpha;
        self
    }

    /// Set the region profile.
    pub fn region(mut self, region: RegionProfile) -> Self {
        self.model.region = region;
        self
    }

    /// Set the fixed per-request overhead (seconds).
    pub fn request_overhead_s(mut self, v: f64) -> Self {
        self.model.request_overhead_s = v;
        self
    }

    /// Finish building.
    pub fn build(self) -> LatencyModel {
        self.model
    }
}

/// Standard-normal sample via the Box–Muller transform (we avoid pulling in
/// `rand_distr`; `rand` alone is on the offline allowlist).
fn box_muller(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Create a deterministic RNG for latency sampling.
pub(crate) fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_duration_arithmetic() {
        let a = SimDuration::from_millis(40);
        let b = SimDuration::from_millis(10);
        assert_eq!((a + b).as_millis_f64(), 50.0);
        assert_eq!((a - b).as_millis_f64(), 30.0);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!((a / 4).as_millis_f64(), 10.0);
        let scaled = a * 2.5;
        assert!((scaled.as_millis_f64() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn sim_duration_from_negative_saturates() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn sim_duration_sum_and_display() {
        let total: SimDuration = vec![
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
            SimDuration::from_millis(3),
        ]
        .into_iter()
        .sum();
        assert_eq!(total, SimDuration::from_millis(6));
        assert_eq!(format!("{total}"), "6.000ms");
    }

    #[test]
    fn affine_shape_small_fetches_flat() {
        // Figure 2: latency is ~flat until ~2MB, then linear.
        let model = LatencyModel::gcs_like();
        let mut rng = seeded_rng(7);
        let small = model.sample(1024, &mut rng);
        let large = model.sample(256 * 1024 * 1024, &mut rng);
        // A 1KB fetch is dominated by first-byte time (tens of ms).
        assert!(small.total().as_millis_f64() > 10.0);
        assert!(small.total().as_millis_f64() < 200.0);
        // A 256MB fetch is dominated by transfer: > 5 seconds at 40MB/s.
        assert!(large.total().as_secs_f64() > 5.0);
        // Transfer for the small fetch is negligible relative to first byte.
        assert!(small.transfer < small.first_byte);
    }

    #[test]
    fn knee_is_near_two_megabytes() {
        let model = LatencyModel::gcs_like();
        // At the knee, transfer time equals the median first-byte time.
        let knee_transfer = model.transfer_time(2 * 1024 * 1024);
        let median_fb = model.effective_first_byte_median();
        let ratio = knee_transfer.as_secs_f64() / median_fb.as_secs_f64();
        assert!((0.5..2.0).contains(&ratio), "knee ratio {ratio}");
    }

    #[test]
    fn instantaneous_model_is_zero() {
        let model = LatencyModel::instantaneous();
        let mut rng = seeded_rng(1);
        let s = model.sample(1_000_000, &mut rng);
        assert_eq!(s.total(), SimDuration::ZERO);
    }

    #[test]
    fn region_multipliers_slow_down_requests() {
        let base = LatencyModel::gcs_like();
        let london = base.clone().with_region(RegionProfile::london());
        let singapore = base.clone().with_region(RegionProfile::singapore());
        let fb_us = base.effective_first_byte_median();
        let fb_ldn = london.effective_first_byte_median();
        let fb_sgp = singapore.effective_first_byte_median();
        assert!(fb_ldn > fb_us);
        assert!(fb_sgp > fb_ldn);
        assert!(london.effective_bandwidth_bps() < base.effective_bandwidth_bps());
    }

    #[test]
    fn long_tail_inflates_some_requests() {
        let heavy = LatencyModel::builder()
            .long_tail(0.2, 1.1)
            .first_byte_sigma(0.0)
            .build();
        let calm = LatencyModel::builder()
            .long_tail(0.0, 1.1)
            .first_byte_sigma(0.0)
            .build();
        let mut rng = seeded_rng(42);
        let heavy_max = (0..500)
            .map(|_| heavy.sample_first_byte(&mut rng).as_millis_f64())
            .fold(0.0_f64, f64::max);
        let mut rng = seeded_rng(42);
        let calm_max = (0..500)
            .map(|_| calm.sample_first_byte(&mut rng).as_millis_f64())
            .fold(0.0_f64, f64::max);
        assert!(
            heavy_max > 2.0 * calm_max,
            "tail should inflate the max: heavy={heavy_max} calm={calm_max}"
        );
    }

    #[test]
    fn sampling_is_deterministic_under_seed() {
        let model = LatencyModel::gcs_like();
        let a: Vec<_> = {
            let mut rng = seeded_rng(99);
            (0..20).map(|_| model.sample(4096, &mut rng)).collect()
        };
        let b: Vec<_> = {
            let mut rng = seeded_rng(99);
            (0..20).map(|_| model.sample(4096, &mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn contended_transfer_shares_bandwidth() {
        let model = LatencyModel::gcs_like();
        let solo = model.contended_transfer_time(1_000_000, 1);
        let batch = model.contended_transfer_time(16_000_000, 16);
        // 16 concurrent 1MB requests take ~16x the single transfer (shared
        // link) plus dispatch overhead, not 1x.
        assert!(batch.as_secs_f64() > 10.0 * solo.as_secs_f64());
    }
}
