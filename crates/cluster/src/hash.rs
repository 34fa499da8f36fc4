//! Rendezvous (highest-random-weight) routing over worker slots.
//!
//! Every `(key, slot)` pair gets a pseudo-random 64-bit weight; the
//! slot with the highest weight is the key's **owner**, and
//! [`Ring::order`] — all slots by descending weight, ties broken by
//! slot index — is the key's failover sequence. Two properties make
//! this the right router for a shard-per-worker cache tier:
//!
//! * **balance** — weights are independent and uniform, so the keyspace
//!   splits close to evenly (the property tests pin ≤ 2× the mean);
//! * **minimal disruption** — a slot's weights do not depend on how
//!   many slots exist, so growing the fleet from N to N+1 slots moves
//!   only the keys the new slot now wins; every other key keeps its
//!   worker, and therefore its warm cache.
//!
//! The coordinator forwards to the first *live* entry of the order, so
//! a dead worker's keys drain onto their next-highest slots without
//! renumbering anything.

/// 64-bit FNV-1a over `bytes` — the crate's key hash, chosen for
/// determinism across processes (no per-process seeding) and
/// std-only implementability.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The rendezvous weight of `slot` for `key`: the splitmix64 finalizer
/// over the key mixed with the (golden-ratio-spread) slot identity.
fn weight(key: u64, slot: usize) -> u64 {
    let mut z = key ^ (slot as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Rendezvous router over a fixed number of worker slots (see module
/// docs).
#[derive(Clone, Debug)]
pub struct Ring {
    slots: usize,
}

impl Ring {
    /// A router over `slots` slots (clamped to ≥ 1).
    pub fn new(slots: usize) -> Self {
        Ring {
            slots: slots.max(1),
        }
    }

    /// The routing key of a `(scale, seed)` design shard: every
    /// endpoint that touches the same built design hashes to the same
    /// worker, so its design + response caches stay hot.
    pub fn shard_key(scale: f64, seed: u64) -> u64 {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&scale.to_bits().to_le_bytes());
        bytes[8..].copy_from_slice(&seed.to_le_bytes());
        fnv1a64(&bytes)
    }

    /// The slot owning `key`: the head of [`Ring::order`].
    pub fn owner(&self, key: u64) -> usize {
        self.order(key)[0]
    }

    /// Every slot by descending weight for `key` (ties by slot index) —
    /// the failover sequence. Always a permutation of `0..slots`.
    pub fn order(&self, key: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.slots).collect();
        order.sort_unstable_by_key(|&slot| (std::cmp::Reverse(weight(key, slot)), slot));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn owner_heads_the_order_and_order_is_a_permutation() {
        let ring = Ring::new(4);
        for raw in 0..1000u64 {
            let key = fnv1a64(&raw.to_le_bytes());
            let order = ring.order(key);
            assert_eq!(order[0], ring.owner(key));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn single_slot_ring_owns_everything() {
        let ring = Ring::new(1);
        for raw in 0..100u64 {
            assert_eq!(ring.owner(fnv1a64(&raw.to_le_bytes())), 0);
            assert_eq!(ring.order(raw), vec![0]);
        }
    }

    #[test]
    fn shard_key_separates_scale_and_seed() {
        // Distinct (scale, seed) tuples must not trivially collide.
        let a = Ring::shard_key(0.01, 1);
        let b = Ring::shard_key(0.01, 2);
        let c = Ring::shard_key(0.02, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // …and the key is a pure function of its inputs.
        assert_eq!(a, Ring::shard_key(0.01, 1));
    }
}
