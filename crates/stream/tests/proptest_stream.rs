//! Property-based tests of the streaming substrates: the sliding KS
//! statistic must equal the batch statistic of the last `2w` observations
//! after every push, and the treap aggregates must match a naive oracle.

use moche_core::ks_statistic;
use moche_stream::{SlidingKs, WeightedTreap};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Push(f64),
    Clear,
}

/// A small grid plus both signed zeros, weighted towards a handful of
/// values so duplicates (within and across the windows) are the norm.
fn value() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-3i32..4).prop_map(|v| f64::from(v) * 0.5),
        (-3i32..4).prop_map(|v| f64::from(v) * 0.5),
        Just(0.0),
        Just(-0.0),
        Just(1.0),
    ]
}

/// Mostly pushes, with a clear about once per 40 operations.
fn op() -> impl Strategy<Value = Op> {
    (0u32..40, value()).prop_map(|(roll, v)| if roll == 0 { Op::Clear } else { Op::Push(v) })
}

/// `max_x |#{r <= x} - #{t <= x}|` by brute force over the sample points,
/// comparing numerically (so `-0.0` ties `0.0`, as in `ks_statistic`).
fn max_count_gap(r: &[f64], t: &[f64]) -> u64 {
    r.iter()
        .chain(t)
        .map(|&x| {
            let below = |s: &[f64]| s.iter().filter(|&&v| v <= x).count() as i64;
            (below(r) - below(t)).unsigned_abs()
        })
        .max()
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // After every push the statistic is exactly `k / w` for the integer
    // count gap `k` of the last 2w values, and within one ulp-scale step
    // of `ks_statistic` (which rounds `i/w` and `j/w` separately before
    // subtracting, so it can differ from `k / w` in the last bit: at
    // w = 3, 2/3 - 1/3 = 0.33333333333333337 while 1/3 = 0.3333333333333333).
    #[test]
    fn sliding_ks_matches_batch_after_every_push(
        w in 2usize..16,
        ops in proptest::collection::vec(op(), 1..160),
    ) {
        let mut ks = SlidingKs::new(w);
        let mut since_clear: Vec<f64> = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Push(v) => {
                    ks.push(v);
                    since_clear.push(v);
                }
                Op::Clear => {
                    ks.clear();
                    since_clear.clear();
                }
            }
            let tail = &since_clear[since_clear.len().saturating_sub(2 * w)..];
            let (r, t) = tail.split_at(tail.len().min(w));
            let bits = |vs: &mut dyn Iterator<Item = f64>| vs.map(f64::to_bits).collect::<Vec<_>>();
            prop_assert_eq!(bits(&mut ks.reference()), bits(&mut r.iter().copied()));
            prop_assert_eq!(bits(&mut ks.test()), bits(&mut t.iter().copied()));
            if tail.len() < 2 * w {
                prop_assert_eq!(ks.statistic(), None, "step {}", step);
                continue;
            }
            let inc = ks.statistic().unwrap();
            let k = max_count_gap(r, t);
            prop_assert_eq!(
                inc.to_bits(),
                (k as f64 / w as f64).to_bits(),
                "step {}: {} vs {}/{}", step, inc, k, w
            );
            let batch = ks_statistic(r, t).unwrap();
            prop_assert!((inc - batch).abs() <= f64::EPSILON, "step {}: {} vs {}", step, inc, batch);
            prop_assert_eq!((batch * w as f64).round() as u64, k, "step {}", step);
        }
    }

    #[test]
    fn treap_matches_oracle_under_updates(
        ops in proptest::collection::vec(((0i32..30), (-9i64..10), prop::bool::ANY), 1..200),
    ) {
        let mut treap = WeightedTreap::new(42);
        let mut map: BTreeMap<i32, (i64, i64)> = BTreeMap::new();
        for (key, weight, removing) in ops {
            let value = f64::from(key) * 0.25;
            let entry = map.entry(key).or_insert((0, 0));
            if removing && entry.1 > 0 {
                // Remove one element carrying an arbitrary weight delta; to
                // keep the oracle consistent we remove weight `weight` too.
                treap.update(value, -weight, -1);
                entry.0 -= weight;
                entry.1 -= 1;
            } else {
                treap.update(value, weight, 1);
                entry.0 += weight;
                entry.1 += 1;
            }
            if entry.1 == 0 {
                map.remove(&key);
            }
            // Oracle prefix sums.
            let mut acc = 0i64;
            let mut maxp = 0i64;
            let mut minp = 0i64;
            for &(w, _) in map.values() {
                acc += w;
                maxp = maxp.max(acc);
                minp = minp.min(acc);
            }
            prop_assert_eq!(treap.total_weight(), acc);
            prop_assert_eq!(treap.max_prefix(), maxp);
            prop_assert_eq!(treap.min_prefix(), minp);
            prop_assert_eq!(treap.distinct_values(), map.len());
        }
    }
}
