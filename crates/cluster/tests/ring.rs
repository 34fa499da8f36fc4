//! Property tests of the rendezvous router: the contracts the
//! coordinator's forwarding loop depends on.

use proptest::prelude::*;
use scap_cluster::hash::{fnv1a64, Ring};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// **Stable**: routing is a pure function of `(slots, key)` — two
    /// independently built routers agree on every owner and every
    /// failover order.
    #[test]
    fn routing_is_stable_across_ring_rebuilds(
        slots in 1usize..9,
        seed in any::<u64>(),
    ) {
        let a = Ring::new(slots);
        let b = Ring::new(slots);
        for i in 0..256u64 {
            let key = fnv1a64(&(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).to_le_bytes());
            prop_assert_eq!(a.owner(key), b.owner(key));
            prop_assert_eq!(a.order(key), b.order(key));
        }
    }

    /// **Balanced**: over a large key sample, no slot owns more than
    /// 2× the mean share of the keyspace.
    #[test]
    fn load_stays_within_twice_the_mean(
        slots in 1usize..9,
        seed in any::<u64>(),
    ) {
        let ring = Ring::new(slots);
        const KEYS: usize = 4096;
        let mut load = vec![0usize; slots];
        for i in 0..KEYS as u64 {
            let key = fnv1a64(&(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).to_le_bytes());
            load[ring.owner(key)] += 1;
        }
        let mean = KEYS as f64 / slots as f64;
        for (slot, &n) in load.iter().enumerate() {
            prop_assert!(
                (n as f64) <= 2.0 * mean,
                "slot {} owns {} of {} keys (mean {:.0})",
                slot, n, KEYS, mean
            );
        }
    }

    /// **Minimal disruption**: growing the fleet from N to N+1 slots
    /// only moves keys *to the new slot* — every other key keeps its
    /// worker, and therefore its warm cache.
    #[test]
    fn growing_the_fleet_moves_keys_only_to_the_new_slot(
        slots in 1usize..8,
        seed in any::<u64>(),
    ) {
        let before = Ring::new(slots);
        let after = Ring::new(slots + 1);
        let mut moved = 0usize;
        const KEYS: usize = 2048;
        for i in 0..KEYS as u64 {
            let key = fnv1a64(&(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).to_le_bytes());
            let old = before.owner(key);
            let new = after.owner(key);
            if old != new {
                prop_assert_eq!(
                    new, slots,
                    "a key moved between pre-existing slots {} -> {}", old, new
                );
                moved += 1;
            }
        }
        // The new slot takes roughly its fair share, never everything.
        prop_assert!(moved < KEYS, "every key moved — not minimally disruptive");
    }

    /// The failover order is always a permutation of the slots and is
    /// headed by the owner — the routing invariant `forward` walks.
    #[test]
    fn order_is_an_owner_headed_permutation(
        slots in 1usize..9,
        raw_key in any::<u64>(),
    ) {
        let ring = Ring::new(slots);
        let order = ring.order(raw_key);
        prop_assert_eq!(order.len(), slots);
        prop_assert_eq!(order[0], ring.owner(raw_key));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..slots).collect::<Vec<_>>());
    }
}
