//! Bounded exponential backoff for transport retries.
//!
//! The first wireplane iteration retried a dead connection exactly once,
//! immediately — fine for a killed loopback socket, hopeless against a
//! restarting peer. [`RetryPolicy`] bounds the attempts and spaces them
//! exponentially with deterministic jitter: the jitter stream is a pure
//! function of `jitter_seed` and the attempt number (a splitmix64 walk),
//! so tests that pin retry schedules stay reproducible while real
//! deployments de-synchronize by seeding differently per connection.

use std::time::Duration;

/// How a failed exchange is retried: up to `max_attempts` tries per
/// replica, sleeping `base_delay · 2^attempt` (capped at `max_delay`)
/// plus up to 50% deterministic jitter between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per replica address before giving up on it (≥ 1; 0 is
    /// treated as 1).
    pub(crate) max_attempts: usize,
    /// Delay before the second attempt; doubles each further attempt.
    pub(crate) base_delay: Duration,
    /// Ceiling on the computed delay, pre-jitter.
    pub(crate) max_delay: Duration,
    /// Seed of the deterministic jitter stream.
    pub(crate) jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
            jitter_seed: 0x5ee4_b007,
        }
    }
}

impl RetryPolicy {
    /// A policy that never sleeps — what latency-sensitive tests use so
    /// failure injection costs no wall-clock.
    pub fn immediate(max_attempts: usize) -> Self {
        RetryPolicy {
            max_attempts,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter_seed: 0,
        }
    }

    /// Attempts per replica, never zero.
    pub(crate) fn attempts(&self) -> usize {
        self.max_attempts.max(1)
    }

    /// The sleep before retry number `attempt` (0-based: the delay
    /// between the first failure and the second try is `backoff(0)`).
    /// Exponential in `attempt`, capped, plus 0–50% jitter drawn from the
    /// seeded stream — identical for identical `(seed, attempt)`.
    pub(crate) fn backoff(&self, attempt: u32) -> Duration {
        let base = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX))
            .min(self.max_delay);
        if base.is_zero() {
            return base;
        }
        // splitmix64 of (seed, attempt): cheap, seedable, stateless.
        let mut z = self
            .jitter_seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(attempt) + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let half = base.as_nanos() as u64 / 2;
        let extra = if half == 0 { 0 } else { z % half };
        base + Duration::from_nanos(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_monotone_pre_cap() {
        let p = RetryPolicy::default();
        for a in 0..8 {
            assert_eq!(p.backoff(a), p.backoff(a), "same (seed, attempt) jitter");
            // base·2^a capped at max_delay, plus at most 50% jitter.
            let cap = p.max_delay + p.max_delay / 2;
            assert!(p.backoff(a) <= cap, "attempt {a} exceeded jittered cap");
        }
        let other = RetryPolicy {
            jitter_seed: 1,
            ..p
        };
        // Different seeds give a different jitter stream somewhere early.
        assert!((0..8).any(|a| other.backoff(a) != p.backoff(a)));
    }

    #[test]
    fn immediate_policy_never_sleeps() {
        let p = RetryPolicy::immediate(4);
        assert_eq!(p.attempts(), 4);
        for a in 0..6 {
            assert_eq!(p.backoff(a), Duration::ZERO);
        }
        assert_eq!(RetryPolicy::immediate(0).attempts(), 1);
    }
}
