//! Differential tests of the flat [`WindowAccumulator`] against its
//! ordered-map oracle (`hids_core::incremental::oracle`): every insert
//! must return the same verdict, and every read — pairs, counts, mask,
//! coverage, length, distribution — must agree exactly.

use proptest::prelude::*;

use hids_core::incremental::oracle;
use hids_core::WindowAccumulator;

/// Insert sequences of three shapes: ascending with repeats (the daemon's
/// usual arrival order, plus redelivered windows), fully random (shuffled
/// delivery), and ascending runs restarted from random points (batches
/// replayed out of order).
fn arb_inserts() -> impl Strategy<Value = Vec<(u32, u64)>> {
    prop_oneof![
        proptest::collection::vec((0u32..200, any::<u64>()), 0..120).prop_map(|mut v| {
            v.sort_by_key(|&(w, _)| w);
            v
        }),
        proptest::collection::vec((0u32..200, any::<u64>()), 0..120),
        proptest::collection::vec((0u32..200, 1u32..40, any::<u64>()), 0..8).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(start, len, salt)| {
                    (start..start + len).map(move |w| (w, salt.wrapping_mul(u64::from(w) + 1)))
                })
                .collect()
        }),
    ]
}

fn build(ops: &[(u32, u64)]) -> (WindowAccumulator, oracle::WindowAccumulator) {
    let mut fast = WindowAccumulator::new();
    let mut slow = oracle::WindowAccumulator::new();
    for &(w, c) in ops {
        assert_eq!(fast.insert(w, c), slow.insert(w, c), "insert({w}, {c})");
    }
    (fast, slow)
}

fn assert_same(fast: &WindowAccumulator, slow: &oracle::WindowAccumulator) {
    assert_eq!(
        fast.iter().collect::<Vec<_>>(),
        slow.iter().collect::<Vec<_>>()
    );
    assert_eq!(fast.counts(), slow.counts());
    assert_eq!(fast.len(), slow.len());
    assert_eq!(fast.is_empty(), slow.is_empty());
    for n in [0usize, 1, 50, 199, 200, 260] {
        assert_eq!(fast.mask(n), slow.mask(n), "mask({n})");
        assert_eq!(
            fast.coverage(n).to_bits(),
            slow.coverage(n).to_bits(),
            "coverage({n})"
        );
    }
    assert_eq!(fast.dist(), slow.dist());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same insert verdicts and same reads as the oracle.
    #[test]
    fn inserts_match_oracle(ops in arb_inserts()) {
        let (fast, slow) = build(&ops);
        assert_same(&fast, &slow);
    }

    /// `merge` keeps `self`'s value on shared windows, exactly as the
    /// oracle does, in both orders.
    #[test]
    fn merge_matches_oracle(a in arb_inserts(), b in arb_inserts()) {
        let (fa, sa) = build(&a);
        let (fb, sb) = build(&b);
        let (mut fab, mut sab) = (fa.clone(), sa.clone());
        fab.merge(&fb);
        sab.merge(&sb);
        assert_same(&fab, &sab);
        let (mut fba, mut sba) = (fb, sb);
        fba.merge(&fa);
        sba.merge(&sa);
        assert_same(&fba, &sba);
    }

    /// `from_pairs` keeps first occurrences, as the oracle does, and
    /// round-trips through `iter`.
    #[test]
    fn from_pairs_matches_oracle(ops in arb_inserts()) {
        let fast = WindowAccumulator::from_pairs(ops.iter().copied());
        let slow = oracle::WindowAccumulator::from_pairs(ops.iter().copied());
        assert_same(&fast, &slow);
        prop_assert_eq!(WindowAccumulator::from_pairs(fast.iter()), fast.clone());
        prop_assert_eq!(&fast, &build(&ops).0);
    }
}
