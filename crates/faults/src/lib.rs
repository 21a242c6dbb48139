//! Deterministic fault injection for the FedLPS simulator.
//!
//! The paper assumes every selected client is online. REFL's core
//! observation — the reason availability-aware selection exists at all —
//! is that real cross-device availability is *correlated*: devices charge
//! at night in timezone waves, and infrastructure outages take whole
//! regions offline at once. This crate supplies the deterministic fault
//! vocabulary the driver replays through its event queue:
//!
//! * [`AvailabilityModel`] — when clients are unavailable.
//!   [`AlwaysOn`](AvailabilityModel::AlwaysOn) (the default) is the
//!   paper's assumption, [`Diurnal`](AvailabilityModel::Diurnal) gives
//!   every client a seeded phase over a shared day/night period, and
//!   [`Burst`](AvailabilityModel::Burst) takes whole seeded zones (the
//!   same [`zone_assignment`] the two-tier topology uses) offline in
//!   correlated outage windows.
//! * [`FaultConfig`] — transient upload failures. Like
//!   [`AvailabilityModel::offline_until`], its draws take the run seed per
//!   call: each attempt's fate is a pure function of
//!   `(seed, client, tick, attempt)`, so retry schedules replay
//!   bit-identically at every parallelism/topology setting.
//! * [`FaultPlan`] — the closed-form outcome of one upload under a
//!   [`FaultConfig`] (how many failures, whether it was ultimately
//!   delivered, and the total backoff it paid), used by tests to
//!   cross-check the driver's incremental event replay against the pure
//!   function.
//!
//! Everything here is a pure function of the run seed: no wall clocks, no
//! shared state, no thread-schedule dependence.

use fedlps_device::fleet::zone_assignment;
use fedlps_tensor::rng::{rng_from_seed, split_seed};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// RNG stream of the per-client diurnal phase (disjoint from every fleet
/// and driver stream).
const STREAM_PHASE: u64 = 0xD1F0A5;
/// RNG stream of the per-window burst-outage draw (which zone, when).
const STREAM_BURST: u64 = 0xB00057;
/// RNG stream of transient upload-attempt faults.
const STREAM_UPLOAD_FAULT: u64 = 0xFA017;

/// When (and how correlatedly) clients are unavailable.
///
/// The driver consults the model once per dispatch, at the dispatch's
/// absolute virtual time: "offline until when?" — the device waits out its
/// unavailability window before computing, so a synchronous barrier
/// genuinely stalls on a night wave while deadline / async / quorum
/// configurations degrade gracefully around it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AvailabilityModel {
    /// Every client is online at every instant — the paper's assumption.
    #[default]
    AlwaysOn,
    /// Day/night waves: client `k` is offline whenever
    /// `(t + phase_k) mod period` falls in the first `night_offline`
    /// fraction of the period, with `phase_k` a seeded per-client offset
    /// uniform in `[0, phase_spread × period)`. `phase_spread = 0` puts the
    /// whole fleet in one timezone (fully correlated nights); `1` spreads
    /// phases over the full period (a rolling wave).
    Diurnal {
        /// Length of one virtual day, in simulated seconds (> 0).
        period: f64,
        /// Fraction of the period the per-client phases spread over
        /// (`[0, 1]`).
        phase_spread: f64,
        /// Fraction of each period a client spends offline (`[0, 1)`).
        night_offline: f64,
    },
    /// Correlated burst outages: virtual time is cut into windows of
    /// `every` seconds; each window draws (seeded) one of `zones` zones and
    /// an outage start, and every client assigned to that zone (by the same
    /// seeded [`zone_assignment`] the two-tier topology uses) is offline
    /// for `outage` seconds. With the topology's zone count this takes
    /// whole `TwoTier` zones offline at once.
    Burst {
        /// Number of zones the fleet partitions into (≥ 1). Use the
        /// two-tier topology's zone count to align outages with
        /// aggregator zones.
        zones: usize,
        /// Window length: one zone-wide outage strikes per window (> 0).
        every: f64,
        /// Outage length in seconds (`0 < outage ≤ every`).
        outage: f64,
    },
}

impl AvailabilityModel {
    /// Short name used in logs and tables.
    pub fn name(&self) -> &'static str {
        match self {
            AvailabilityModel::AlwaysOn => "always-on",
            AvailabilityModel::Diurnal { .. } => "diurnal",
            AvailabilityModel::Burst { .. } => "burst",
        }
    }

    /// Resolves a model name to its canonical parameterization — the
    /// demo/test presets sized for quickstart-scale latencies (round spans of
    /// a few milliseconds of virtual time). Custom parameters are
    /// constructed directly. Returns `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "always-on" => Some(AvailabilityModel::AlwaysOn),
            "diurnal" => Some(AvailabilityModel::Diurnal {
                period: 0.02,
                phase_spread: 1.0,
                night_offline: 0.4,
            }),
            "burst" => Some(AvailabilityModel::Burst {
                zones: 4,
                every: 0.02,
                outage: 0.008,
            }),
            _ => None,
        }
    }

    /// If `client` is unavailable at virtual time `now`, the absolute time
    /// its current offline window ends; `None` when it is available.
    ///
    /// A pure function of `(model, seed, client, now)`; `AlwaysOn` always
    /// returns `None`.
    pub fn offline_until(&self, seed: u64, client: usize, now: f64) -> Option<f64> {
        match *self {
            AvailabilityModel::AlwaysOn => None,
            AvailabilityModel::Diurnal {
                period,
                phase_spread,
                night_offline,
            } => {
                let mut rng =
                    rng_from_seed(split_seed(split_seed(seed, STREAM_PHASE), client as u64));
                let phase = rng.gen::<f64>() * phase_spread * period;
                let pos = (now + phase).rem_euclid(period);
                let night = night_offline * period;
                (pos < night).then_some(now + (night - pos))
            }
            AvailabilityModel::Burst {
                zones,
                every,
                outage,
            } => {
                let window = (now / every).floor().max(0.0);
                let mut rng =
                    rng_from_seed(split_seed(split_seed(seed, STREAM_BURST), window as u64));
                let hit_zone = rng.gen_range(0..zones);
                let start = window * every + rng.gen::<f64>() * (every - outage);
                let inside = now >= start && now < start + outage;
                (inside && zone_assignment(seed, client, zones) == hit_zone)
                    .then_some(start + outage)
            }
        }
    }

    /// Checks the model's parameters, returning an actionable message on
    /// the first bad knob.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            AvailabilityModel::AlwaysOn => Ok(()),
            AvailabilityModel::Diurnal {
                period,
                phase_spread,
                night_offline,
            } => {
                if !(period.is_finite() && period > 0.0) {
                    return Err(format!(
                        "diurnal period must be finite and > 0, got {period}"
                    ));
                }
                if !(0.0..=1.0).contains(&phase_spread) {
                    return Err(format!(
                        "diurnal phase_spread must be in [0, 1], got {phase_spread}"
                    ));
                }
                if !(0.0..1.0).contains(&night_offline) {
                    return Err(format!(
                        "diurnal night_offline must be in [0, 1) — a fleet offline \
                         all day never uploads — got {night_offline}"
                    ));
                }
                Ok(())
            }
            AvailabilityModel::Burst {
                zones,
                every,
                outage,
            } => {
                if zones < 1 {
                    return Err("burst availability needs at least one zone".to_string());
                }
                if !(every.is_finite() && every > 0.0) {
                    return Err(format!(
                        "burst window length `every` must be finite and > 0, got {every}"
                    ));
                }
                if !(outage.is_finite() && outage > 0.0 && outage <= every) {
                    return Err(format!(
                        "burst outage must satisfy 0 < outage <= every ({every}), got {outage}"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// Transient upload-fault knobs. The default injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability any single upload attempt fails on the wire (`[0, 1)`;
    /// 0 disables fault injection entirely).
    pub upload_failure_prob: f64,
    /// Retransmissions allowed after the initial attempt; once
    /// `max_retries + 1` attempts have failed the update drops permanently.
    pub max_retries: u32,
    /// Backoff before the first retransmission, in simulated seconds
    /// (> 0). The backoff doubles per retry: the `r`-th retransmission
    /// waits `retry_backoff × 2^(r-1)` seconds.
    pub retry_backoff: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            upload_failure_prob: 0.0,
            max_retries: 3,
            retry_backoff: 0.01,
        }
    }
}

impl FaultConfig {
    /// No fault injection (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the injector can ever fail an attempt.
    pub fn enabled(&self) -> bool {
        self.upload_failure_prob > 0.0
    }

    /// Checks the knobs, returning an actionable message on the first bad
    /// one. Inert knobs are checked too: a config that would misbehave the
    /// moment `upload_failure_prob` is raised should fail up front.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.upload_failure_prob) {
            return Err(format!(
                "upload_failure_prob must be in [0, 1) — certain failure drops \
                 every update — got {}",
                self.upload_failure_prob
            ));
        }
        if !(self.retry_backoff.is_finite() && self.retry_backoff > 0.0) {
            return Err(format!(
                "retry_backoff must be finite and > 0 seconds, got {}",
                self.retry_backoff
            ));
        }
        // The schedule's clock must stay finite: 2^max_retries overflows
        // f64 from 1024 retries on.
        let doublings = i32::try_from(self.max_retries).unwrap_or(i32::MAX);
        let worst_backoff = self.retry_backoff * (2f64.powi(doublings) - 1.0);
        if !worst_backoff.is_finite() {
            return Err(format!(
                "max_retries must keep the worst-case total backoff \
                 retry_backoff × (2^max_retries − 1) finite, got {} retries",
                self.max_retries
            ));
        }
        Ok(())
    }

    /// Whether attempt number `attempt` (0 = the initial transmission) of
    /// the upload keyed by `(client, tick)` fails in the run seeded by
    /// `seed`. `tick` is the driver's scheduling tick (round index for
    /// cohort modes, dispatch sequence for async), so every attempt is an
    /// independent pure draw and nothing depends on event interleaving.
    /// Always `false` when fault injection is disabled — no RNG is consumed.
    pub fn upload_attempt_fails(&self, seed: u64, client: usize, tick: u64, attempt: u32) -> bool {
        if !self.enabled() {
            return false;
        }
        let per_upload = split_seed(
            split_seed(split_seed(seed, STREAM_UPLOAD_FAULT), client as u64),
            tick,
        );
        let mut rng = rng_from_seed(split_seed(per_upload, attempt as u64));
        rng.gen::<f64>() < self.upload_failure_prob
    }

    /// Backoff before retransmission `retry` (1-based):
    /// `retry_backoff × 2^(retry-1)`.
    pub fn backoff_delay(&self, retry: u32) -> f64 {
        debug_assert!(retry >= 1, "retransmissions are 1-based");
        self.retry_backoff * 2f64.powi(retry as i32 - 1)
    }

    /// Replays the attempt sequence of the upload keyed by `(client, tick)`
    /// to its closed-form [`FaultPlan`].
    pub fn plan(&self, seed: u64, client: usize, tick: u64) -> FaultPlan {
        let mut failures = 0u32;
        while self.upload_attempt_fails(seed, client, tick, failures) {
            failures += 1;
            if failures > self.max_retries {
                break;
            }
        }
        let delivered = failures <= self.max_retries;
        // A dropped upload stopped retransmitting at the cap.
        let retransmissions = failures.min(self.max_retries);
        let mut backoff_seconds = 0.0;
        for r in 1..=retransmissions {
            backoff_seconds += self.backoff_delay(r);
        }
        FaultPlan {
            failures,
            delivered,
            backoff_seconds,
        }
    }
}

/// The resolved outcome of one upload under a [`FaultConfig`]: what the
/// driver's incremental `UploadRetry` replay converges to, as one pure
/// function. Tests cross-check the event-driven path against this.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Attempts that failed (0 = clean first-try delivery).
    pub failures: u32,
    /// Whether the update was ultimately delivered (`false`: the retry cap
    /// was exhausted and the update dropped permanently).
    pub delivered: bool,
    /// Total backoff the schedule paid, summed over the retransmissions
    /// actually made (excludes retransmission airtime — that is the
    /// client's own comm cost, re-paid per attempt).
    pub backoff_seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 1234;

    #[test]
    fn always_on_is_never_offline() {
        let m = AvailabilityModel::AlwaysOn;
        for client in 0..32 {
            for t in [0.0, 0.37, 123.4] {
                assert_eq!(m.offline_until(SEED, client, t), None);
            }
        }
    }

    #[test]
    fn diurnal_windows_end_when_promised_and_repeat_with_the_period() {
        let m = AvailabilityModel::Diurnal {
            period: 1.0,
            phase_spread: 1.0,
            night_offline: 0.3,
        };
        // Find an offline (client, time) pair; with 30% occupancy over 64
        // clients × 8 probes one must exist.
        let mut found = None;
        'search: for client in 0..64 {
            for i in 0..8 {
                let t = i as f64 * 0.125;
                if let Some(until) = m.offline_until(SEED, client, t) {
                    found = Some((client, t, until));
                    break 'search;
                }
            }
        }
        let (client, t, until) = found.expect("a 30%-night fleet has offline probes");
        assert!(until > t && until <= t + 0.3 + 1e-12);
        // Available the instant the window ends, offline again one period
        // before the probe (the wave is periodic).
        assert_eq!(m.offline_until(SEED, client, until), None);
        assert!(m.offline_until(SEED, client, t + 1.0).is_some());
        // Same window one period later (up to `rem_euclid` float rounding).
        let next = m.offline_until(SEED, client, t + 1.0).unwrap();
        assert!(((next - 1.0 - t) - (until - t)).abs() < 1e-9);
    }

    #[test]
    fn diurnal_phases_spread_across_clients() {
        let m = AvailabilityModel::Diurnal {
            period: 1.0,
            phase_spread: 1.0,
            night_offline: 0.4,
        };
        // At one instant, a spread fleet is partially — not uniformly —
        // offline, and the occupancy is near the configured fraction.
        let offline = (0..512)
            .filter(|&k| m.offline_until(SEED, k, 0.25).is_some())
            .count();
        assert!(offline > 0 && offline < 512);
        let frac = offline as f64 / 512.0;
        assert!((frac - 0.4).abs() < 0.1, "occupancy {frac} far from 0.4");
    }

    #[test]
    fn zero_phase_spread_is_one_timezone() {
        let m = AvailabilityModel::Diurnal {
            period: 1.0,
            phase_spread: 0.0,
            night_offline: 0.25,
        };
        // Everyone shares phase 0: the whole fleet is offline at 0.1 and
        // online at 0.5.
        for k in 0..32 {
            assert!(m.offline_until(SEED, k, 0.1).is_some());
            assert_eq!(m.offline_until(SEED, k, 0.5), None);
        }
    }

    #[test]
    fn burst_takes_a_whole_zone_offline_together() {
        let zones = 4;
        let m = AvailabilityModel::Burst {
            zones,
            every: 1.0,
            outage: 0.5,
        };
        // Scan the first windows for an instant inside an outage.
        let mut hit = None;
        'scan: for w in 0..8 {
            for i in 0..20 {
                let t = w as f64 + i as f64 * 0.05;
                if let Some(k) = (0..64).find(|&k| m.offline_until(SEED, k, t).is_some()) {
                    hit = Some((t, zone_assignment(SEED, k, zones)));
                    break 'scan;
                }
            }
        }
        let (t, hit_zone) = hit.expect("a 50%-duty burst strikes within 8 windows");
        for k in 0..64 {
            assert_eq!(
                m.offline_until(SEED, k, t).is_some(),
                zone_assignment(SEED, k, zones) == hit_zone,
                "burst offline state must equal zone membership"
            );
        }
    }

    #[test]
    fn burst_outages_stay_inside_their_window() {
        let m = AvailabilityModel::Burst {
            zones: 3,
            every: 2.0,
            outage: 0.5,
        };
        for k in 0..32 {
            for i in 0..200 {
                let t = i as f64 * 0.05;
                if let Some(until) = m.offline_until(SEED, k, t) {
                    let window_end = (t / 2.0).floor() * 2.0 + 2.0;
                    assert!(until <= window_end + 1e-12);
                    assert!(until - t <= 0.5 + 1e-12);
                }
            }
        }
    }

    #[test]
    fn names_round_trip_and_presets_validate() {
        for name in ["always-on", "diurnal", "burst"] {
            let m = AvailabilityModel::from_name(name).unwrap();
            assert_eq!(m.name(), name);
            m.validate().unwrap();
        }
        assert_eq!(AvailabilityModel::from_name("weibull"), None);
        assert_eq!(AvailabilityModel::default(), AvailabilityModel::AlwaysOn);
    }

    #[test]
    fn bad_availability_knobs_are_rejected_with_actionable_messages() {
        let bad = [
            AvailabilityModel::Diurnal {
                period: 0.0,
                phase_spread: 0.5,
                night_offline: 0.3,
            },
            AvailabilityModel::Diurnal {
                period: 1.0,
                phase_spread: 1.5,
                night_offline: 0.3,
            },
            AvailabilityModel::Diurnal {
                period: 1.0,
                phase_spread: 0.5,
                night_offline: 1.0,
            },
            AvailabilityModel::Burst {
                zones: 0,
                every: 1.0,
                outage: 0.5,
            },
            AvailabilityModel::Burst {
                zones: 4,
                every: 1.0,
                outage: 1.5,
            },
            AvailabilityModel::Burst {
                zones: 4,
                every: 0.0,
                outage: 0.0,
            },
        ];
        for m in bad {
            let err = m.validate().unwrap_err();
            assert!(!err.is_empty(), "{m:?} must carry a message");
        }
    }

    #[test]
    fn bad_fault_knobs_are_rejected() {
        assert!(FaultConfig::none().validate().is_ok());
        let bad = [
            FaultConfig {
                upload_failure_prob: 1.0,
                ..FaultConfig::default()
            },
            FaultConfig {
                max_retries: 1100,
                ..FaultConfig::default()
            },
            FaultConfig {
                retry_backoff: 0.0,
                ..FaultConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} must be rejected");
        }
        // 2^1023 is the largest finite doubling.
        let longest = FaultConfig {
            max_retries: 1023,
            ..FaultConfig::default()
        };
        assert!(longest.validate().is_ok());
        let overflowing = FaultConfig {
            max_retries: 1024,
            ..longest
        };
        assert!(overflowing.validate().unwrap_err().contains("max_retries"));
    }

    #[test]
    fn disabled_injector_never_fails_an_attempt() {
        let faults = FaultConfig::none();
        for client in 0..64 {
            assert!(!faults.upload_attempt_fails(SEED, client, 3, 0));
        }
        let plan = faults.plan(SEED, 9, 1);
        assert_eq!(
            plan,
            FaultPlan {
                failures: 0,
                delivered: true,
                backoff_seconds: 0.0
            }
        );
    }

    #[test]
    fn attempt_fates_are_pure_and_attempt_indexed() {
        let faults = FaultConfig {
            upload_failure_prob: 0.5,
            ..FaultConfig::default()
        };
        let fails_at =
            |client, tick, attempt| faults.upload_attempt_fails(SEED, client, tick, attempt);
        let mut fails = 0;
        for client in 0..200 {
            let a = fails_at(client, 7, 0);
            assert_eq!(a, fails_at(client, 7, 0), "pure draw");
            fails += a as usize;
        }
        assert!((50..150).contains(&fails), "rate {fails}/200 far from 1/2");
        // Different attempts and ticks draw independent fates: over many
        // clients the pairs must disagree somewhere.
        assert!((0..200).any(|k| fails_at(k, 7, 0) != fails_at(k, 7, 1)));
        assert!((0..200).any(|k| fails_at(k, 7, 0) != fails_at(k, 8, 0)));
    }

    #[test]
    fn backoff_grows_exponentially() {
        let faults = FaultConfig {
            upload_failure_prob: 0.5,
            retry_backoff: 0.01,
            max_retries: 3,
        };
        assert_eq!(faults.backoff_delay(1), 0.01);
        assert_eq!(faults.backoff_delay(2), 0.02);
        assert_eq!(faults.backoff_delay(3), 0.04);
    }

    #[test]
    fn plans_match_a_manual_attempt_replay() {
        let faults = FaultConfig {
            upload_failure_prob: 0.45,
            max_retries: 2,
            retry_backoff: 0.01,
        };
        let mut saw_drop = false;
        let mut saw_retry_success = false;
        for client in 0..400 {
            let plan = faults.plan(SEED, client, 11);
            // Manual replay of the driver's incremental logic.
            let mut failures = 0u32;
            while failures <= 2 && faults.upload_attempt_fails(SEED, client, 11, failures) {
                failures += 1;
            }
            let delivered = failures <= 2;
            assert_eq!(plan.failures, failures);
            assert_eq!(plan.delivered, delivered);
            let expect_backoff = match failures {
                0 => 0.0,
                1 => 0.01,
                2 => 0.01 + 0.02,
                _ => 0.01 + 0.02, // dropped: only 2 retransmissions made
            };
            assert_eq!(plan.backoff_seconds, expect_backoff);
            saw_drop |= !plan.delivered;
            saw_retry_success |= plan.delivered && plan.failures > 0;
        }
        assert!(saw_drop, "p=0.45 with 2 retries must drop someone in 400");
        assert!(saw_retry_success, "and deliver someone on a retry");
    }
}
