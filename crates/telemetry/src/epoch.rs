//! Epoch arithmetic and the §4.2.1 epoch-range extrapolation.
//!
//! A switch's epoch at local time `t` is `t / α`. Only the tagging switch's
//! epoch travels in the packet; the destination host must bound the epochs
//! at which every *other* switch on the path processed the packet, knowing
//! only that clock offsets are bounded by ε and per-hop delay by Δ:
//!
//! * upstream switch, `j` hops before the tagger: `[e − ⌈(ε + jΔ)/α⌉, e + ⌈ε/α⌉]`
//! * downstream switch, `j` hops after:          `[e − ⌈ε/α⌉, e + ⌈(ε + jΔ)/α⌉]`
//! * the tagging switch itself: exactly `[e, e]`.
//!
//! (The paper's worked example with α = 10 ms, ε = α, Δ = 2α yields
//! `[e−3, e+1]` one hop upstream and `[e−1, e+3]` one hop downstream,
//! reproduced in the tests below.)

use netsim::time::SimTime;

/// Epoch-timing parameters shared by switches and hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochParams {
    /// Epoch duration α.
    pub alpha: SimTime,
    /// Bound on pairwise clock offset ε.
    pub epsilon: SimTime,
    /// Bound on one-hop delay Δ (queueing + serialization + propagation).
    pub delta: SimTime,
}

impl EpochParams {
    /// The paper's running configuration: α = 10 ms, ε = α, Δ = 2α.
    pub fn paper_defaults() -> Self {
        EpochParams {
            alpha: SimTime::from_ms(10),
            epsilon: SimTime::from_ms(10),
            delta: SimTime::from_ms(20),
        }
    }

    /// The epoch a clock reading `local_time` falls in.
    #[inline]
    pub fn epoch_of(&self, local_time: SimTime) -> u64 {
        debug_assert!(self.alpha.as_ns() > 0);
        local_time.as_ns() / self.alpha.as_ns()
    }

    /// Start time of an epoch on the local clock.
    #[inline]
    #[cfg(test)]
    pub(crate) fn epoch_start(&self, epoch: u64) -> SimTime {
        SimTime::from_ns(epoch * self.alpha.as_ns())
    }

    /// ⌈x/α⌉ in epochs.
    fn ceil_epochs(&self, x: SimTime) -> u64 {
        x.as_ns().div_ceil(self.alpha.as_ns())
    }

    /// Epoch range for a switch `j` hops from the tagging switch, given the
    /// tagging switch recorded epoch `e`. `j = 0` returns the exact epoch.
    pub(crate) fn extrapolate(&self, e: u64, j: u64, dir: HopDirection) -> EpochRange {
        if j == 0 {
            return EpochRange { lo: e, hi: e };
        }
        let wide = self.ceil_epochs(SimTime::from_ns(
            self.epsilon.as_ns() + j * self.delta.as_ns(),
        ));
        let slack = self.ceil_epochs(self.epsilon);
        match dir {
            HopDirection::Upstream => EpochRange {
                lo: e.saturating_sub(wide),
                hi: e + slack,
            },
            HopDirection::Downstream => EpochRange {
                lo: e.saturating_sub(slack),
                hi: e + wide,
            },
        }
    }
}

/// Which side of the tagging switch a hop lies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HopDirection {
    /// Processed the packet *before* the tagging switch.
    Upstream,
    /// Processed the packet *after* the tagging switch.
    Downstream,
}

/// An inclusive range of epoch identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EpochRange {
    pub lo: u64,
    pub hi: u64,
}

impl EpochRange {
    /// Single-epoch range.
    pub fn exact(e: u64) -> Self {
        EpochRange { lo: e, hi: e }
    }

    /// True if `e` lies within the range.
    #[inline]
    pub fn contains(&self, e: u64) -> bool {
        self.lo <= e && e <= self.hi
    }

    /// Number of epochs covered.
    pub fn len(&self) -> u64 {
        self.hi - self.lo + 1
    }

    /// Always at least one epoch.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates the covered epochs.
    pub fn iter(&self) -> impl Iterator<Item = u64> {
        self.lo..=self.hi
    }

    /// True if two ranges share at least one epoch (the analyzer's
    /// "at least one common epochID" test, §5.2).
    #[cfg(test)]
    pub(crate) fn overlaps(&self, other: &EpochRange) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }
}

impl std::fmt::Display for EpochRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.lo == self.hi {
            write!(f, "[e{}]", self.lo)
        } else {
            write!(f, "[e{}..e{}]", self.lo, self.hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_of_divides_time() {
        let p = EpochParams::paper_defaults();
        assert_eq!(p.epoch_of(SimTime::ZERO), 0);
        assert_eq!(p.epoch_of(SimTime::from_ms(9)), 0);
        assert_eq!(p.epoch_of(SimTime::from_ms(10)), 1);
        assert_eq!(p.epoch_of(SimTime::from_ms(105)), 10);
        assert_eq!(p.epoch_start(10), SimTime::from_ms(100));
    }

    #[test]
    fn paper_worked_example() {
        // α = 10 ms, ε = α, Δ = 2α; tagging switch epoch e_i.
        let p = EpochParams::paper_defaults();
        let e = 100;
        // One hop upstream (the paper's S2): [e−3, e+1].
        assert_eq!(
            p.extrapolate(e, 1, HopDirection::Upstream),
            EpochRange { lo: 97, hi: 101 }
        );
        // One hop downstream (the paper's S4): [e−1, e+3].
        assert_eq!(
            p.extrapolate(e, 1, HopDirection::Downstream),
            EpochRange { lo: 99, hi: 103 }
        );
        // The tagging switch: exact.
        assert_eq!(
            p.extrapolate(e, 0, HopDirection::Upstream),
            EpochRange::exact(e)
        );
    }

    #[test]
    fn two_hops_widen_further() {
        let p = EpochParams::paper_defaults();
        let up2 = p.extrapolate(100, 2, HopDirection::Upstream);
        assert_eq!(up2, EpochRange { lo: 95, hi: 101 });
        let down2 = p.extrapolate(100, 2, HopDirection::Downstream);
        assert_eq!(down2, EpochRange { lo: 99, hi: 105 });
    }

    #[test]
    fn saturation_at_epoch_zero() {
        let p = EpochParams::paper_defaults();
        let r = p.extrapolate(1, 3, HopDirection::Upstream);
        assert_eq!(r.lo, 0);
    }

    #[test]
    fn range_ops() {
        let r = EpochRange { lo: 5, hi: 8 };
        assert!(r.contains(5) && r.contains(8) && !r.contains(9));
        assert_eq!(r.len(), 4);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![5, 6, 7, 8]);
        assert!(r.overlaps(&EpochRange { lo: 8, hi: 10 }));
        assert!(!r.overlaps(&EpochRange { lo: 9, hi: 10 }));
        assert_eq!(format!("{r}"), "[e5..e8]");
        assert_eq!(format!("{}", EpochRange::exact(3)), "[e3]");
    }

    #[test]
    fn extrapolation_covers_truth_under_bounded_asynchrony() {
        // Exhaustive check of the guarantee: for any true processing times
        // within the Δ-per-hop and ε-offset bounds, the true epoch of every
        // switch lies in the predicted range.
        let p = EpochParams::paper_defaults();
        let alpha = p.alpha.as_ns() as i64;
        let eps = p.epsilon.as_ns() as i64;
        let delta = p.delta.as_ns() as i64;

        // Global (true) time the tagging switch processed the packet.
        for t_tag in [0i64, 7_000_000, 123_456_789] {
            // Tagging switch clock offset within ±ε/2 (so pairwise ≤ ε).
            for off_tag in [-eps / 2, 0, eps / 2] {
                let e_tag = ((t_tag + off_tag).max(0) as u64) / alpha as u64;
                for j in 1..=3u64 {
                    // A j-hop-upstream switch processed it up to j·Δ earlier.
                    for hop_lag in [1i64, delta / 2, delta] {
                        let t_up = t_tag - (j as i64) * hop_lag;
                        for off_up in [-eps / 2, 0, eps / 2] {
                            let true_e = ((t_up + off_up).max(0) as u64) / alpha as u64;
                            let r = p.extrapolate(e_tag, j, HopDirection::Upstream);
                            assert!(
                                r.contains(true_e),
                                "upstream j={j} t_tag={t_tag} lag={hop_lag}: {true_e} not in {r}"
                            );
                        }
                        // Mirror: downstream.
                        let t_down = t_tag + (j as i64) * hop_lag;
                        for off_down in [-eps / 2, 0, eps / 2] {
                            let true_e = ((t_down + off_down).max(0) as u64) / alpha as u64;
                            let r = p.extrapolate(e_tag, j, HopDirection::Downstream);
                            assert!(r.contains(true_e), "downstream j={j}: {true_e} not in {r}");
                        }
                    }
                }
            }
        }
    }
}
