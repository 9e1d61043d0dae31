//! Deterministic, seed-driven fault injection.
//!
//! A [`FaultPlan`] names the faults a run should suffer — allocation
//! failures in the lock pool, torn frames and stalls on the wire,
//! background-thread panics — and [`FaultPlan::build`] compiles it
//! into a cheap, `Arc`-cloneable [`FaultInjector`] that the memalloc,
//! service, and net layers consult at their injection sites.
//!
//! Two properties drive the design:
//!
//! - **Determinism.** Whether the *k*-th check at a site injects is a
//!   pure function of `(seed, site, k)`: each site keeps its own
//!   atomic check counter and hashes it (splitmix64) against the
//!   site's rate threshold. Two runs that make the same sequence of
//!   checks at a site inject at the same checks. Burst windows
//!   (`k % period < len`) are likewise counter-driven, so a burst
//!   site is *guaranteed* to fire once enough checks happen — chaos
//!   tests lean on this instead of probability.
//! - **Zero cost when compiled out.** Without the crate's `enabled`
//!   feature, [`FaultInjector::should`] is a constant `false` and the
//!   injector is an empty struct; every `if faults.should(site)`
//!   branch at a call site folds away. This mirrors the obs gate:
//!   consumers keep unconditional code and forward a `faults` cargo
//!   feature to `locktune-faults/enabled`.
//!
//! Injected faults are counted per site ([`FaultInjector::injected`])
//! so harnesses can pair each injection with the recovery it expects
//! (a background-job recovery, a client reconnect, a shed cycle). A run can
//! also [`FaultInjector::disarm`] the injector to get a clean drain
//! phase after the storm.

use std::fmt;
#[cfg(feature = "enabled")]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
#[cfg(feature = "enabled")]
use std::sync::Arc;
use std::time::Duration;

/// True when this build can actually inject faults (`enabled` feature).
pub const ENABLED: bool = cfg!(feature = "enabled");

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// `SharedLockMemoryPool::allocate` returns `Exhausted`.
    AllocFail,
    /// The server writer emits half a reply frame, then kills the
    /// connection (torn / truncated frame as seen by the client).
    WireTorn,
    /// The server writer sleeps before a frame (artificial stall).
    WireStall,
    /// The server writer drops the connection without writing.
    WireDisconnect,
    /// The tuning thread panics at the top of an interval.
    TunerPanic,
    /// The deadlock sweeper panics at the top of a sweep.
    SweeperPanic,
}

/// Number of distinct injection sites.
pub const SITE_COUNT: usize = 6;

impl FaultSite {
    /// All sites, in tag order.
    pub const ALL: [FaultSite; SITE_COUNT] = [
        FaultSite::AllocFail,
        FaultSite::WireTorn,
        FaultSite::WireStall,
        FaultSite::WireDisconnect,
        FaultSite::TunerPanic,
        FaultSite::SweeperPanic,
    ];

    /// Dense index, also the wire/journal tag for `FaultInjected`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name for logs and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::AllocFail => "alloc_fail",
            FaultSite::WireTorn => "wire_torn",
            FaultSite::WireStall => "wire_stall",
            FaultSite::WireDisconnect => "wire_disconnect",
            FaultSite::TunerPanic => "tuner_panic",
            FaultSite::SweeperPanic => "sweeper_panic",
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-site schedule inside a [`FaultPlan`].
#[derive(Debug, Clone, Copy, Default)]
struct SitePlan {
    /// Probability in `[0, 1]` that any given check injects.
    rate: f64,
    /// Deterministic burst: checks with `k % period < len` inject,
    /// regardless of `rate`. `period == 0` disables the burst.
    burst_period: u64,
    burst_len: u64,
    /// Hard cap on injections at this site (`u64::MAX` = unlimited).
    limit: u64,
}

/// A declarative description of the faults a run should suffer.
///
/// Built fluently, then compiled once:
///
/// ```
/// use locktune_faults::{FaultPlan, FaultSite};
/// let inj = FaultPlan::new(0xC0FFEE)
///     .rate(FaultSite::AllocFail, 0.01)
///     .burst(FaultSite::WireDisconnect, 200, 1)
///     .rate(FaultSite::TunerPanic, 1.0)
///     .limit(FaultSite::TunerPanic, 2)
///     .stall(std::time::Duration::from_millis(2))
///     .build();
/// let _ = inj.should(FaultSite::AllocFail);
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    sites: [SitePlan; SITE_COUNT],
    stall: Duration,
}

impl FaultPlan {
    /// A plan with no faults; add sites fluently.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            sites: [SitePlan {
                rate: 0.0,
                burst_period: 0,
                burst_len: 0,
                limit: u64::MAX,
            }; SITE_COUNT],
            stall: Duration::from_millis(1),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Inject at `site` with probability `rate` per check.
    pub fn rate(mut self, site: FaultSite, rate: f64) -> FaultPlan {
        self.sites[site.index()].rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Inject at `site` on every check whose index `k` satisfies
    /// `k % period < len` — a guaranteed, evenly spaced burst.
    pub fn burst(mut self, site: FaultSite, period: u64, len: u64) -> FaultPlan {
        let s = &mut self.sites[site.index()];
        s.burst_period = period;
        s.burst_len = len.min(period);
        self
    }

    /// Cap total injections at `site` to `max`.
    pub fn limit(mut self, site: FaultSite, max: u64) -> FaultPlan {
        self.sites[site.index()].limit = max;
        self
    }

    /// How long a [`FaultSite::WireStall`] injection sleeps.
    pub fn stall(mut self, d: Duration) -> FaultPlan {
        self.stall = d;
        self
    }

    /// Compile the plan into a runtime injector. Without the crate's
    /// `enabled` feature this returns the same inert injector as
    /// [`FaultInjector::disabled`].
    pub fn build(&self) -> FaultInjector {
        #[cfg(feature = "enabled")]
        {
            let armed = self
                .sites
                .iter()
                .any(|s| (s.rate > 0.0 || (s.burst_period > 0 && s.burst_len > 0)) && s.limit > 0);
            if !armed {
                return FaultInjector::disabled();
            }
            FaultInjector {
                inner: Some(Arc::new(Inner {
                    seed: self.seed,
                    sites: std::array::from_fn(|i| {
                        let p = &self.sites[i];
                        SiteState {
                            // rate * 2^64, saturating: a threshold an
                            // unsigned 64-bit hash is compared against.
                            threshold: if p.rate >= 1.0 {
                                u64::MAX
                            } else {
                                (p.rate * (u64::MAX as f64)) as u64
                            },
                            exact: p.rate >= 1.0,
                            burst_period: p.burst_period,
                            burst_len: p.burst_len,
                            limit: p.limit,
                            checks: AtomicU64::new(0),
                            injected: AtomicU64::new(0),
                        }
                    }),
                    stall: self.stall,
                    armed: AtomicBool::new(true),
                })),
            }
        }
        #[cfg(not(feature = "enabled"))]
        {
            FaultInjector::disabled()
        }
    }
}

#[cfg(feature = "enabled")]
struct SiteState {
    threshold: u64,
    /// `rate == 1.0`: inject on every check (the threshold compare
    /// would miss hash values equal to `u64::MAX`).
    exact: bool,
    burst_period: u64,
    burst_len: u64,
    limit: u64,
    checks: AtomicU64,
    injected: AtomicU64,
}

#[cfg(feature = "enabled")]
struct Inner {
    seed: u64,
    sites: [SiteState; SITE_COUNT],
    stall: Duration,
    armed: AtomicBool,
}

#[cfg(feature = "enabled")]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(feature = "enabled")]
impl Inner {
    fn should(&self, site: FaultSite) -> bool {
        if !self.armed.load(Ordering::Acquire) {
            return false;
        }
        let s = &self.sites[site.index()];
        if s.injected.load(Ordering::Relaxed) >= s.limit {
            return false;
        }
        let k = s.checks.fetch_add(1, Ordering::Relaxed);
        let hit = if (s.burst_period > 0 && k % s.burst_period < s.burst_len) || s.exact {
            true
        } else if s.threshold > 0 {
            // Decorrelate sites sharing one seed by salting with the
            // site index before mixing in the check counter.
            splitmix64(
                self.seed ^ ((site.index() as u64) << 56) ^ k.wrapping_mul(0xA24B_AED4_963E_E407),
            ) < s.threshold
        } else {
            false
        };
        if hit {
            s.injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }
}

/// Runtime fault decisions, shared by every layer of one run.
///
/// Cloning is cheap (an `Arc`); all clones share counters and the
/// armed flag. The inert form ([`FaultInjector::disabled`]) never
/// injects and is what every production entry point uses.
#[derive(Clone, Default)]
pub struct FaultInjector {
    #[cfg(feature = "enabled")]
    inner: Option<Arc<Inner>>,
}

impl FaultInjector {
    /// An injector that never fires.
    pub fn disabled() -> FaultInjector {
        FaultInjector::default()
    }

    /// Should the current check at `site` inject a fault?
    ///
    /// Constant `false` (and fully folded away) when the `enabled`
    /// feature is off.
    #[inline(always)]
    pub fn should(&self, site: FaultSite) -> bool {
        #[cfg(feature = "enabled")]
        if let Some(inner) = &self.inner {
            return inner.should(site);
        }
        let _ = site;
        false
    }

    /// True when this injector can ever fire.
    #[inline]
    pub fn is_armed(&self) -> bool {
        #[cfg(feature = "enabled")]
        if let Some(inner) = &self.inner {
            return inner.armed.load(Ordering::Acquire);
        }
        false
    }

    /// Stop injecting (all clones see it). Counters keep their values;
    /// use this to get a clean drain phase after a chaos storm.
    pub fn disarm(&self) {
        #[cfg(feature = "enabled")]
        if let Some(inner) = &self.inner {
            inner.armed.store(false, Ordering::Release);
        }
    }

    /// Faults injected so far at `site`.
    pub fn injected(&self, site: FaultSite) -> u64 {
        #[cfg(feature = "enabled")]
        if let Some(inner) = &self.inner {
            return inner.sites[site.index()].injected.load(Ordering::Relaxed);
        }
        let _ = site;
        0
    }

    /// Per-site injection counts, indexed by [`FaultSite::index`].
    pub fn injected_counts(&self) -> [u64; SITE_COUNT] {
        let mut out = [0u64; SITE_COUNT];
        for site in FaultSite::ALL {
            out[site.index()] = self.injected(site);
        }
        out
    }

    /// Total injections across all sites.
    fn injected_total(&self) -> u64 {
        self.injected_counts().iter().sum()
    }

    /// Sleep length for a [`FaultSite::WireStall`] injection.
    pub fn stall(&self) -> Duration {
        #[cfg(feature = "enabled")]
        if let Some(inner) = &self.inner {
            return inner.stall;
        }
        Duration::ZERO
    }
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_armed() {
            write!(
                f,
                "FaultInjector {{ armed, injected: {} }}",
                self.injected_total()
            )
        } else {
            f.write_str("FaultInjector { disabled }")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_fires() {
        let inj = FaultInjector::disabled();
        for site in FaultSite::ALL {
            for _ in 0..1000 {
                assert!(!inj.should(site));
            }
            assert_eq!(inj.injected(site), 0);
        }
        assert!(!inj.is_armed());
    }

    #[test]
    fn empty_plan_is_inert() {
        let inj = FaultPlan::new(7).build();
        assert!(!inj.is_armed());
        assert!(!inj.should(FaultSite::AllocFail));
    }

    #[cfg(feature = "enabled")]
    mod armed {
        use super::*;

        #[test]
        fn decisions_are_deterministic_per_seed() {
            let run = |seed| {
                let inj = FaultPlan::new(seed).rate(FaultSite::AllocFail, 0.1).build();
                (0..4096)
                    .map(|_| inj.should(FaultSite::AllocFail))
                    .collect::<Vec<_>>()
            };
            assert_eq!(run(1), run(1));
            assert_ne!(run(1), run(2), "different seeds should differ");
            let hits = run(1).iter().filter(|&&b| b).count();
            // 10% of 4096 with generous slack.
            assert!((200..=620).contains(&hits), "hits {hits}");
        }

        #[test]
        fn sites_are_decorrelated() {
            let inj = FaultPlan::new(42)
                .rate(FaultSite::AllocFail, 0.5)
                .rate(FaultSite::WireTorn, 0.5)
                .build();
            let a: Vec<bool> = (0..256).map(|_| inj.should(FaultSite::AllocFail)).collect();
            let b: Vec<bool> = (0..256).map(|_| inj.should(FaultSite::WireTorn)).collect();
            assert_ne!(a, b);
        }

        #[test]
        fn burst_guarantees_hits() {
            let inj = FaultPlan::new(9)
                .burst(FaultSite::WireDisconnect, 10, 2)
                .build();
            let hits: Vec<usize> = (0..30)
                .filter(|_| inj.should(FaultSite::WireDisconnect))
                .collect::<Vec<_>>()
                .iter()
                .enumerate()
                .map(|(i, _)| i)
                .collect();
            assert_eq!(inj.injected(FaultSite::WireDisconnect), 6);
            let fired: Vec<bool> = {
                let inj = FaultPlan::new(9)
                    .burst(FaultSite::WireDisconnect, 10, 2)
                    .build();
                (0..30)
                    .map(|_| inj.should(FaultSite::WireDisconnect))
                    .collect()
            };
            for (k, hit) in fired.iter().enumerate() {
                assert_eq!(*hit, k % 10 < 2, "check {k}");
            }
            let _ = hits;
        }

        #[test]
        fn limit_caps_injections() {
            let inj = FaultPlan::new(3)
                .rate(FaultSite::TunerPanic, 1.0)
                .limit(FaultSite::TunerPanic, 2)
                .build();
            let hits = (0..100)
                .filter(|_| inj.should(FaultSite::TunerPanic))
                .count();
            assert_eq!(hits, 2);
            assert_eq!(inj.injected(FaultSite::TunerPanic), 2);
        }

        #[test]
        fn disarm_stops_everything() {
            let inj = FaultPlan::new(5).rate(FaultSite::AllocFail, 1.0).build();
            assert!(inj.should(FaultSite::AllocFail));
            let clone = inj.clone();
            clone.disarm();
            assert!(!inj.should(FaultSite::AllocFail));
            assert_eq!(inj.injected(FaultSite::AllocFail), 1);
        }

        #[test]
        fn rate_one_fires_every_check() {
            let inj = FaultPlan::new(11)
                .rate(FaultSite::SweeperPanic, 1.0)
                .build();
            assert!((0..64).all(|_| inj.should(FaultSite::SweeperPanic)));
        }
    }
}
