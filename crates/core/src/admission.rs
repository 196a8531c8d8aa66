//! Admission control for the serving core: priority classes,
//! per-tenant token-bucket quotas, and queue-depth/deadline-aware
//! load-shedding.
//!
//! The paper's serving story assumes a cooperative workload; a
//! production front-end does not get that luxury. A single bounded
//! queue degrades bluntly under overload — every submitter sees the
//! same back-pressure regardless of how important its query is. This
//! module makes overload *graceful* instead (the closed-loop
//! [`QueryServer`](crate::serve::QueryServer) uses only its hard cap:
//! it admits everything as [`Priority::High`] under a `workers +
//! queue_capacity` budget):
//!
//! * **Priority classes** ([`Priority`]) partition the in-flight budget
//!   with per-class depth watermarks: Low work is shed first (at ~50% of
//!   capacity by default), Normal next (~80%), and High keeps the full
//!   budget — so background scans never starve interactive traffic.
//! * **Per-tenant token buckets** ([`QuotaConfig`]) bound any single
//!   tenant's admission rate on the *simulated* clock, so one noisy
//!   tenant cannot monopolize the in-flight budget even below the depth
//!   watermarks.
//! * **Deadline-aware rejection**: once the smoothed (EWMA) sojourn
//!   estimate says an arriving query cannot meet its deadline, admitting
//!   it only wastes backend reads — it is shed up front with a typed
//!   [`SubmitError::Overloaded`] carrying a `retry_after` hint.
//!
//! Every rejection is **typed**: callers receive
//! `SubmitError::Overloaded { class, retry_after }`, never a panic or a
//! silent drop, and the counters in [`AdmissionStats`] preserve the
//! conservation invariant `submitted == admitted + shed_total()`.
//!
//! The controller is clock-explicit — every decision takes `now` from
//! the caller (the server's virtual clock) — which keeps it trivially
//! testable and deterministic.

use crate::serve::SubmitError;
use airphant_storage::SimDuration;
use std::collections::HashMap;

/// Priority class of a submitted query. Ordering is by importance:
/// `High > Normal > Low` in terms of how long each keeps being admitted
/// as load rises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Interactive traffic: admitted until the hard in-flight cap.
    High,
    /// Default class: shed at the normal watermark (~80% of capacity).
    Normal,
    /// Background/batch traffic: shed first (~50% of capacity).
    Low,
}

impl Priority {
    /// Human-readable label (`"high"`, `"normal"`, `"low"`).
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-tenant token-bucket quota, refilled on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaConfig {
    /// Bucket capacity: how many queries a tenant may burst at once.
    pub burst: f64,
    /// Sustained refill rate in queries per simulated second.
    pub per_sec: f64,
}

impl QuotaConfig {
    /// A quota allowing `per_sec` sustained qps with a burst of `burst`.
    pub fn new(burst: f64, per_sec: f64) -> Self {
        Self { burst, per_sec }
    }
}

/// Configuration for the [`AdmissionController`].
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Hard cap on concurrently admitted (in-flight) queries. This is a
    /// *memory* bound, not a thread bound: the serving core suspends
    /// queries on the virtual clock, so tens of thousands can be in
    /// flight over a handful of OS threads.
    pub max_in_flight: usize,
    /// Fraction of `max_in_flight` at which Low-priority work is shed.
    pub low_watermark: f64,
    /// Fraction of `max_in_flight` at which Normal-priority work is shed.
    pub normal_watermark: f64,
    /// Per-tenant token-bucket quota; `None` disables quota enforcement.
    pub quota: Option<QuotaConfig>,
    /// When set, arrivals whose EWMA-estimated sojourn exceeds this
    /// deadline are shed up front instead of timing out after burning
    /// backend reads.
    pub deadline: Option<SimDuration>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_in_flight: 16 * 1024,
            low_watermark: 0.5,
            normal_watermark: 0.8,
            quota: None,
            deadline: None,
        }
    }
}

impl AdmissionConfig {
    /// Config with the given hard in-flight cap and default watermarks.
    pub fn with_max_in_flight(max_in_flight: usize) -> Self {
        Self {
            max_in_flight,
            ..Self::default()
        }
    }

    /// Set the per-tenant quota.
    pub fn with_quota(mut self, quota: QuotaConfig) -> Self {
        self.quota = Some(quota);
        self
    }

    /// Set the admission deadline used for up-front infeasibility sheds.
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    fn class_limit(&self, class: Priority) -> usize {
        let frac = match class {
            Priority::High => 1.0,
            Priority::Normal => self.normal_watermark,
            Priority::Low => self.low_watermark,
        };
        ((self.max_in_flight as f64 * frac).floor() as usize).max(1)
    }
}

/// Counters kept by the [`AdmissionController`]. The conservation
/// invariant `submitted == admitted + shed_total()` always holds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdmissionStats {
    /// Queries that reached admission.
    pub submitted: u64,
    /// Queries admitted into the in-flight set.
    pub admitted: u64,
    /// High-priority queries shed at the hard cap.
    pub shed_high: u64,
    /// Normal-priority queries shed at the normal watermark.
    pub shed_normal: u64,
    /// Low-priority queries shed at the low watermark.
    pub shed_low: u64,
    /// Queries shed because the tenant's token bucket was empty.
    pub shed_quota: u64,
    /// Queries shed because the sojourn estimate exceeded the deadline.
    pub shed_deadline: u64,
}

impl AdmissionStats {
    /// Total shed queries across every cause.
    pub fn shed_total(&self) -> u64 {
        self.shed_high + self.shed_normal + self.shed_low + self.shed_quota + self.shed_deadline
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    last_refill: SimDuration,
}

/// Depth-, quota-, and deadline-aware admission over the virtual clock.
///
/// Not internally synchronized: the serving core drives it under its
/// own scheduler lock, and unit tests drive it directly.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    in_flight: usize,
    buckets: HashMap<String, Bucket>,
    /// Virtual time of the last idle-bucket sweep.
    last_sweep: SimDuration,
    /// Smoothed end-to-end sojourn (seconds) of completed queries.
    ewma_sojourn: Option<f64>,
    stats: AdmissionStats,
}

/// EWMA smoothing factor for the sojourn estimate.
const EWMA_ALPHA: f64 = 0.1;

/// Fallback sojourn estimate before any completion has been observed:
/// roughly two cloud round trips.
const DEFAULT_SOJOURN_SECS: f64 = 0.1;

impl AdmissionController {
    /// A controller with zero in-flight queries.
    pub fn new(config: AdmissionConfig) -> Self {
        Self {
            config,
            in_flight: 0,
            buckets: HashMap::new(),
            last_sweep: SimDuration::ZERO,
            ewma_sojourn: None,
            stats: AdmissionStats::default(),
        }
    }

    /// Number of tenants with a live token bucket. Bounded under
    /// unique-tenant churn: buckets idle for a full refill are swept.
    pub fn tracked_tenants(&self) -> usize {
        self.buckets.len()
    }

    /// Currently admitted (in-flight) queries.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// The configuration this controller enforces.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Smoothed sojourn estimate in simulated seconds (observed or the
    /// cold-start default).
    pub fn sojourn_estimate_secs(&self) -> f64 {
        self.ewma_sojourn.unwrap_or(DEFAULT_SOJOURN_SECS)
    }

    /// Decide admission for one arrival at virtual time `now`. On
    /// success the query counts as in-flight until
    /// [`AdmissionController::on_complete`]. Every rejection is a typed
    /// [`SubmitError::Overloaded`] with a `retry_after` hint.
    pub fn try_admit(
        &mut self,
        class: Priority,
        tenant: Option<&str>,
        now: SimDuration,
    ) -> Result<(), SubmitError> {
        self.stats.submitted += 1;

        // 1. Depth watermark for the class. Shedding happens *before*
        //    any token is consumed so a shed burst does not also drain
        //    the tenant's quota.
        let limit = self.config.class_limit(class);
        if self.in_flight >= limit {
            match class {
                Priority::High => self.stats.shed_high += 1,
                Priority::Normal => self.stats.shed_normal += 1,
                Priority::Low => self.stats.shed_low += 1,
            }
            return Err(SubmitError::Overloaded {
                class,
                retry_after: self.drain_hint(limit),
            });
        }

        // 2. Deadline feasibility: the crude but effective Little's-law
        //    style estimate — the smoothed sojourn scaled by how full the
        //    in-flight set is. If even that optimistic figure blows the
        //    deadline, admitting only wastes backend reads. Cold start
        //    (no observed completion yet) admits optimistically. Runs
        //    *before* the token bucket so a deadline shed never drains the
        //    tenant's quota — every shed path rejects with the bucket
        //    untouched.
        if let (Some(deadline), Some(sojourn)) = (self.config.deadline, self.ewma_sojourn) {
            let load = 1.0 + self.in_flight as f64 / self.config.max_in_flight.max(1) as f64;
            let estimate = sojourn * load;
            if estimate > deadline.as_secs_f64() {
                self.stats.shed_deadline += 1;
                return Err(SubmitError::Overloaded {
                    class,
                    retry_after: SimDuration::from_secs_f64(estimate - deadline.as_secs_f64()),
                });
            }
        }

        // 3. Per-tenant token bucket on the virtual clock. This is the
        //    last check: a token is consumed only by an admission.
        if let (Some(quota), Some(tenant)) = (self.config.quota, tenant) {
            self.sweep_idle_buckets(quota, now);
            let bucket = self.buckets.entry(tenant.to_owned()).or_insert(Bucket {
                tokens: quota.burst,
                last_refill: now,
            });
            let elapsed = now.saturating_sub(bucket.last_refill).as_secs_f64();
            bucket.tokens = (bucket.tokens + elapsed * quota.per_sec).min(quota.burst);
            bucket.last_refill = now;
            if bucket.tokens < 1.0 {
                self.stats.shed_quota += 1;
                let deficit = 1.0 - bucket.tokens;
                let secs = if quota.per_sec > 0.0 {
                    deficit / quota.per_sec
                } else {
                    DEFAULT_SOJOURN_SECS
                };
                return Err(SubmitError::Overloaded {
                    class,
                    retry_after: SimDuration::from_secs_f64(secs),
                });
            }
            bucket.tokens -= 1.0;
        }

        self.stats.admitted += 1;
        self.in_flight += 1;
        Ok(())
    }

    /// Record a finished query (completed, failed, or timed out):
    /// releases its in-flight slot and folds its sojourn into the EWMA
    /// estimate.
    pub fn on_complete(&mut self, sojourn: SimDuration) {
        self.in_flight = self.in_flight.saturating_sub(1);
        let secs = sojourn.as_secs_f64();
        self.ewma_sojourn = Some(match self.ewma_sojourn {
            Some(prev) => prev + EWMA_ALPHA * (secs - prev),
            None => secs,
        });
    }

    /// Snapshot of the admission counters.
    pub fn stats(&self) -> AdmissionStats {
        self.stats.clone()
    }

    /// Evict token buckets idle for at least one full refill. An idle
    /// bucket refills to `burst`, which is exactly the state a fresh
    /// bucket starts in — so dropping it cannot change any future
    /// admission decision, it only bounds the map under unique-tenant
    /// churn. Runs at most once per refill horizon, keeping the scan
    /// amortized O(1) per arrival. With `per_sec == 0` buckets never
    /// refill, so eviction would hand churning tenants a fresh burst;
    /// such configs keep their buckets forever.
    fn sweep_idle_buckets(&mut self, quota: QuotaConfig, now: SimDuration) {
        if quota.per_sec <= 0.0 {
            return;
        }
        let horizon = SimDuration::from_secs_f64(quota.burst / quota.per_sec);
        if now.saturating_sub(self.last_sweep) < horizon {
            return;
        }
        self.last_sweep = now;
        self.buckets
            .retain(|_, b| now.saturating_sub(b.last_refill) < horizon);
    }

    /// Estimated time until the in-flight set drains below `limit`:
    /// completions arrive at roughly `in_flight / sojourn` per second, so
    /// the excess drains in `excess * sojourn / in_flight`.
    fn drain_hint(&self, limit: usize) -> SimDuration {
        let excess = (self.in_flight + 1).saturating_sub(limit).max(1) as f64;
        let depth = self.in_flight.max(1) as f64;
        let secs = (self.sojourn_estimate_secs() * excess / depth).max(0.001);
        SimDuration::from_secs_f64(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn watermarks_shed_low_before_normal_before_high() {
        let mut ctl = AdmissionController::new(AdmissionConfig::with_max_in_flight(10));
        // Fill to the low watermark (5 of 10).
        for _ in 0..5 {
            ctl.try_admit(Priority::High, None, ms(0)).unwrap();
        }
        let low = ctl.try_admit(Priority::Low, None, ms(1)).unwrap_err();
        assert!(matches!(
            low,
            SubmitError::Overloaded {
                class: Priority::Low,
                ..
            }
        ));
        // Normal still fits until 8 of 10.
        for _ in 0..3 {
            ctl.try_admit(Priority::Normal, None, ms(2)).unwrap();
        }
        let normal = ctl.try_admit(Priority::Normal, None, ms(3)).unwrap_err();
        assert!(matches!(
            normal,
            SubmitError::Overloaded {
                class: Priority::Normal,
                ..
            }
        ));
        // High fills the hard cap, then sheds too.
        for _ in 0..2 {
            ctl.try_admit(Priority::High, None, ms(4)).unwrap();
        }
        let high = ctl.try_admit(Priority::High, None, ms(5)).unwrap_err();
        assert!(matches!(
            high,
            SubmitError::Overloaded {
                class: Priority::High,
                retry_after,
            } if retry_after > SimDuration::ZERO
        ));
        let stats = ctl.stats();
        assert_eq!(stats.submitted, stats.admitted + stats.shed_total());
        assert_eq!(stats.shed_low, 1);
        assert_eq!(stats.shed_normal, 1);
        assert_eq!(stats.shed_high, 1);
    }

    #[test]
    fn completions_release_slots() {
        let mut ctl = AdmissionController::new(AdmissionConfig::with_max_in_flight(2));
        ctl.try_admit(Priority::High, None, ms(0)).unwrap();
        ctl.try_admit(Priority::High, None, ms(0)).unwrap();
        assert!(ctl.try_admit(Priority::High, None, ms(1)).is_err());
        ctl.on_complete(ms(40));
        assert_eq!(ctl.in_flight(), 1);
        ctl.try_admit(Priority::High, None, ms(2)).unwrap();
        assert!((ctl.sojourn_estimate_secs() - 0.040).abs() < 1e-9);
    }

    #[test]
    fn token_bucket_refills_on_virtual_clock() {
        let quota = QuotaConfig::new(2.0, 10.0); // burst 2, 10 qps
        let cfg = AdmissionConfig::with_max_in_flight(100).with_quota(quota);
        let mut ctl = AdmissionController::new(cfg);
        // Burst of 2 admitted, third shed on quota.
        ctl.try_admit(Priority::Normal, Some("t0"), ms(0)).unwrap();
        ctl.try_admit(Priority::Normal, Some("t0"), ms(0)).unwrap();
        let err = ctl
            .try_admit(Priority::Normal, Some("t0"), ms(0))
            .unwrap_err();
        match err {
            SubmitError::Overloaded { retry_after, .. } => {
                // 1 token at 10 qps = 100ms away.
                assert!((retry_after.as_secs_f64() - 0.1).abs() < 1e-6);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Another tenant is unaffected.
        ctl.try_admit(Priority::Normal, Some("t1"), ms(0)).unwrap();
        // 100 virtual ms later the bucket holds one token again.
        ctl.try_admit(Priority::Normal, Some("t0"), ms(100))
            .unwrap();
        assert_eq!(ctl.stats().shed_quota, 1);
    }

    #[test]
    fn deadline_infeasible_arrivals_are_shed() {
        let cfg = AdmissionConfig::with_max_in_flight(100).with_deadline(ms(10));
        let mut ctl = AdmissionController::new(cfg);
        // Teach the EWMA that sojourns run ~200ms.
        ctl.try_admit(Priority::High, None, ms(0)).unwrap();
        ctl.on_complete(ms(200));
        let err = ctl.try_admit(Priority::High, None, ms(1)).unwrap_err();
        assert!(matches!(err, SubmitError::Overloaded { .. }));
        assert_eq!(ctl.stats().shed_deadline, 1);
    }

    #[test]
    fn deadline_sheds_do_not_consume_tenant_tokens() {
        // Regression: the deadline-feasibility check used to run *after*
        // the token bucket, so a deadline shed had already consumed a
        // token — double-penalizing the tenant. With `per_sec: 0` there
        // is no refill, making any leak permanent and observable.
        let cfg = AdmissionConfig::with_max_in_flight(100)
            .with_quota(QuotaConfig::new(2.0, 0.0))
            .with_deadline(ms(10));
        let mut ctl = AdmissionController::new(cfg);
        ctl.try_admit(Priority::High, Some("t"), ms(0)).unwrap();
        assert_eq!(ctl.buckets.get("t").unwrap().tokens, 1.0);
        // Teach the EWMA that sojourns run ~200ms >> the 10ms deadline.
        ctl.on_complete(ms(200));
        let err = ctl.try_admit(Priority::High, Some("t"), ms(1)).unwrap_err();
        assert!(matches!(err, SubmitError::Overloaded { .. }));
        let stats = ctl.stats();
        assert_eq!(stats.shed_deadline, 1);
        assert_eq!(stats.shed_quota, 0);
        // The shed left the bucket exactly as it was.
        assert_eq!(ctl.buckets.get("t").unwrap().tokens, 1.0);
        assert_eq!(stats.submitted, stats.admitted + stats.shed_total());
    }

    #[test]
    fn idle_tenant_buckets_are_swept() {
        // burst 5 at 10 qps → a full refill (the sweep horizon) is 500ms.
        let quota = QuotaConfig::new(5.0, 10.0);
        let cfg = AdmissionConfig::with_max_in_flight(100_000).with_quota(quota);
        let mut ctl = AdmissionController::new(cfg);
        // 10k unique tenants arriving 1ms apart: without eviction the map
        // would hold all 10k buckets forever.
        for i in 0..10_000u64 {
            let tenant = format!("tenant-{i}");
            ctl.try_admit(Priority::High, Some(&tenant), ms(i)).unwrap();
        }
        // At most one horizon of tenants survives a sweep, plus up to one
        // more horizon of arrivals before the next sweep fires.
        assert!(
            ctl.tracked_tenants() <= 1_001,
            "unique-tenant churn must not grow the map past the sweep \
             horizon, got {} buckets",
            ctl.tracked_tenants()
        );
    }

    #[test]
    fn eviction_preserves_refill_semantics() {
        // burst 2 at 10 qps → horizon 200ms.
        let quota = QuotaConfig::new(2.0, 10.0);
        let cfg = AdmissionConfig::with_max_in_flight(100).with_quota(quota);
        let mut ctl = AdmissionController::new(cfg);
        ctl.try_admit(Priority::Normal, Some("t"), ms(0)).unwrap();
        ctl.try_admit(Priority::Normal, Some("t"), ms(0)).unwrap();
        assert!(ctl.try_admit(Priority::Normal, Some("t"), ms(0)).is_err());
        // 300ms later the bucket has been idle past a full refill: the
        // sweep drops it, and the recreated bucket starts at `burst` —
        // byte-identical to what refill would have produced.
        ctl.try_admit(Priority::Normal, Some("t"), ms(300)).unwrap();
        ctl.try_admit(Priority::Normal, Some("t"), ms(300)).unwrap();
        assert!(ctl.try_admit(Priority::Normal, Some("t"), ms(300)).is_err());
        // A recently active tenant is never swept mid-conversation.
        ctl.try_admit(Priority::Normal, Some("u"), ms(301)).unwrap();
        ctl.try_admit(Priority::Normal, Some("u"), ms(350)).unwrap();
        assert!(ctl.buckets.contains_key("u"));
    }

    #[test]
    fn conservation_invariant_under_random_mix() {
        let mut ctl = AdmissionController::new(AdmissionConfig::with_max_in_flight(4));
        let classes = [Priority::High, Priority::Normal, Priority::Low];
        let mut ok = 0u64;
        for i in 0..100u64 {
            let class = classes[(i % 3) as usize];
            if ctl.try_admit(class, Some("t"), ms(i)).is_ok() {
                ok += 1;
                if i % 2 == 0 {
                    ctl.on_complete(ms(30));
                }
            }
        }
        let stats = ctl.stats();
        assert_eq!(stats.admitted, ok);
        assert_eq!(stats.submitted, 100);
        assert_eq!(stats.submitted, stats.admitted + stats.shed_total());
    }
}
