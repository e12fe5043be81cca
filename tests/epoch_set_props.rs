//! `EpochSet` — a flow's epochs at one switch, kept as sorted, disjoint,
//! non-adjacent runs — against the `BTreeSet<u64>` of every epoch it
//! replaced, under seeded random insert sequences: in order, reversed,
//! shuffled, overlapping, touching, repeated, and pressed against
//! `u64::MAX`. Every accessor must answer what the reference answers, the
//! runs must stay canonical, and `==` must hold exactly when the reference
//! sets are equal. The codec half: encode∘decode is the identity, both on
//! every set and on every corrupted encoding the decoder still accepts.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::rng_for;
use switchpointer::hoststore::EpochSet;
use telemetry::frame::{from_bytes, to_bytes};
use telemetry::EpochRange;

const CASES: usize = 2_000;

/// A random insert sequence over a window of ≈ 160 epochs, based at 0 or
/// just below `u64::MAX`.
fn gen_ranges(rng: &mut TestRng) -> Vec<EpochRange> {
    let base = if rng.below(3) == 0 {
        u64::MAX - 160
    } else {
        rng.below(1_000)
    };
    let mut out: Vec<EpochRange> = Vec::new();
    for _ in 0..rng.below(12) {
        let r = match (rng.below(6), out.last().copied()) {
            // Touching the previous range on either side.
            (0, Some(p)) if p.hi < u64::MAX => {
                let lo = p.hi + 1;
                EpochRange {
                    lo,
                    hi: lo.saturating_add(rng.below(4)),
                }
            }
            (1, Some(p)) if p.lo > 0 => {
                let hi = p.lo - 1;
                EpochRange {
                    lo: hi.saturating_sub(rng.below(4)),
                    hi,
                }
            }
            // A repeat of the previous range.
            (2, Some(p)) => p,
            // Ending at the top of the window (u64::MAX when based there).
            (3, _) => EpochRange {
                lo: base + 160 - rng.below(10),
                hi: base + 160,
            },
            _ => {
                let lo = base + rng.below(150);
                EpochRange {
                    lo,
                    hi: lo + rng.below(9),
                }
            }
        };
        out.push(r);
    }
    match rng.below(3) {
        0 => out.sort_by_key(|r| (r.lo, r.hi)),
        1 => out.sort_by_key(|r| std::cmp::Reverse((r.lo, r.hi))),
        _ => {}
    }
    out
}

fn build(ranges: &[EpochRange]) -> (EpochSet, BTreeSet<u64>) {
    let mut set = EpochSet::default();
    let mut reference = BTreeSet::new();
    for &r in ranges {
        set.insert(r);
        reference.extend(r.lo..=r.hi);
    }
    (set, reference)
}

fn assert_canonical(set: &EpochSet) {
    for r in set.runs() {
        assert!(r.lo <= r.hi, "inverted run in {set:?}");
    }
    for w in set.runs().windows(2) {
        assert!(
            w[0].hi.checked_add(1).is_some_and(|next| next < w[1].lo),
            "runs not ascending and apart: {set:?}"
        );
    }
}

/// A query range drawn near the set's epochs (or anywhere, now and then).
fn gen_query(rng: &mut TestRng, reference: &BTreeSet<u64>) -> EpochRange {
    let anchor = match reference
        .iter()
        .nth(rng.below(reference.len() as u64 + 1) as usize)
    {
        Some(&e) => e,
        None => rng.next_u64(),
    };
    let lo = anchor.saturating_sub(rng.below(6));
    EpochRange {
        lo,
        hi: lo.saturating_add(rng.below(8)),
    }
}

#[test]
fn epoch_set_answers_what_the_btreeset_it_replaced_answers() {
    let mut rng = rng_for("epoch set model");
    for case in 0..CASES {
        let ranges = gen_ranges(&mut rng);
        let (set, reference) = build(&ranges);
        let ctx = format!("case {case}: inserts {ranges:?} gave {set:?}");
        assert_canonical(&set);
        assert!(set.iter().eq(reference.iter().copied()), "iter: {ctx}");
        assert_eq!(set.len(), reference.len() as u64, "len: {ctx}");
        assert_eq!(set.is_empty(), reference.is_empty(), "is_empty: {ctx}");
        assert_eq!(set.last(), reference.last().copied(), "last: {ctx}");
        for _ in 0..8 {
            let q = gen_query(&mut rng, &reference);
            let want: Vec<u64> = reference.range(q.lo..=q.hi).copied().collect();
            assert!(
                set.epochs_in(q).eq(want.iter().copied()),
                "epochs_in {q:?}: {ctx}"
            );
            assert_eq!(
                set.intersects(q),
                !want.is_empty(),
                "intersects {q:?}: {ctx}"
            );
            for e in [q.lo, q.hi] {
                assert_eq!(
                    set.contains(e),
                    reference.contains(&e),
                    "contains {e}: {ctx}"
                );
            }
        }
        assert_eq!(
            reference.iter().copied().collect::<EpochSet>(),
            set,
            "{ctx}"
        );
        assert_eq!(
            from_bytes::<EpochSet>(&to_bytes(&set)),
            Ok(set),
            "codec: {ctx}"
        );
    }
}

#[test]
fn epoch_set_equality_is_reference_set_equality() {
    let mut rng = rng_for("epoch set equality");
    for case in 0..CASES {
        let a = gen_ranges(&mut rng);
        // Half the time the same inserts in another order (equal sets
        // built along different paths); else an independent sequence.
        let b = if rng.below(2) == 0 {
            let mut b = a.clone();
            for i in (1..b.len()).rev() {
                b.swap(i, rng.below(i as u64 + 1) as usize);
            }
            b
        } else {
            gen_ranges(&mut rng)
        };
        let ((sa, ra), (sb, rb)) = (build(&a), build(&b));
        assert_eq!(sa == sb, ra == rb, "case {case}: {a:?} vs {b:?}");
    }
}

#[test]
fn every_accepted_corruption_of_an_encoding_re_encodes_to_itself() {
    let mut rng = rng_for("epoch set codec canonical");
    let mut accepted = 0;
    for _ in 0..CASES {
        let (set, _) = build(&gen_ranges(&mut rng));
        let mut bytes = to_bytes(&set);
        if bytes.len() > 1 {
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 << rng.below(8);
        }
        if let Ok(back) = from_bytes::<EpochSet>(&bytes) {
            accepted += 1;
            assert_canonical(&back);
            assert_eq!(to_bytes(&back), bytes, "accepted {bytes:02x?} as {back:?}");
        }
    }
    assert!(
        accepted > CASES / 10,
        "too few corruptions accepted to test: {accepted}"
    );
}
