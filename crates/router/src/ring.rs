//! Deterministic consistent hashing with virtual nodes (rendezvous form).
//!
//! The ring is the router's placement function: every shard contributes
//! `replication` virtual nodes, each a pure-arithmetic salt, and a key
//! places on the shard owning the **highest-weight** virtual node for that
//! key (`weight = splitmix64(key_hash ^ vnode_salt)` — highest-random-weight
//! / rendezvous hashing, Thaler & Ravishankar). The properties the router
//! leans on:
//!
//! * **determinism** — placement depends only on `(seed, shard ids,
//!   replication, key)`, all pure arithmetic (an FNV-1a walk with a
//!   splitmix64 finisher, both the shared ones in `starj_noise::rng`).
//!   Two rings built with the same configuration place every key
//!   identically, across processes and across runs — no `RandomState`, no
//!   process entropy.
//! * **minimal movement** — removing a shard moves exactly the keys whose
//!   winning virtual node belonged to it (they fall to their runner-up);
//!   adding a shard moves exactly the keys its new virtual nodes win.
//!   Every other key keeps its argmax and stays put
//!   (`crates/router/tests/prop_ring.rs` pins both down).
//! * **balance** — each key's weights are i.i.d. uniform across shards,
//!   so load splits multinomially: with `k` keys on `n` shards the
//!   heaviest shard concentrates near `k/n` (within 2× of ideal with
//!   overwhelming margin for the dataset counts a router hosts). This is
//!   why the rendezvous form is used instead of sorted-arc ownership: a
//!   random-arc ring's imbalance shrinks only like `1/√replication` and
//!   demonstrably exceeds 2× at 8 virtual nodes, while rendezvous meets
//!   the bound at any replication factor.
//!
//! Placement is `O(shards · replication)` per lookup — datasets place
//! rarely (at add/refresh/rebalance time, never per query), so the router
//! buys the balance and movement guarantees for a cost that never sits on
//! the serving path.

use starj_noise::rng::{fnv1a, splitmix64, FNV_OFFSET};
use std::collections::BTreeSet;

/// Hashes a key for placement: seed-offset FNV-1a over the bytes, then a
/// splitmix64 finisher for avalanche (plain FNV clusters short suffixes).
pub fn hash_key(seed: u64, key: &str) -> u64 {
    let mut h = fnv1a(FNV_OFFSET ^ splitmix64(&mut { seed }), key.bytes().map(u64::from));
    splitmix64(&mut h)
}

/// The salt of one virtual node: a pure function of the seed, the shard
/// id, and the replica index.
fn vnode_salt(seed: u64, shard: u32, replica: u32) -> u64 {
    let node = splitmix64(&mut (seed ^ ((u64::from(shard) << 32) | u64::from(replica))));
    splitmix64(&mut node.wrapping_add(seed))
}

/// A deterministic consistent-hash placement map from string keys to
/// shard ids.
#[derive(Debug, Clone)]
pub struct HashRing {
    seed: u64,
    replication: usize,
    /// `(shard, salt)` for every virtual node, in (shard, replica) order.
    vnodes: Vec<(u32, u64)>,
    shards: BTreeSet<u32>,
}

impl HashRing {
    /// A ring over the given shard ids with `replication` virtual nodes
    /// per shard (clamped to ≥ 1) and a deterministic `seed`.
    pub fn new(shards: impl IntoIterator<Item = u32>, replication: usize, seed: u64) -> HashRing {
        let mut ring = HashRing {
            seed,
            replication: replication.max(1),
            vnodes: Vec::new(),
            shards: BTreeSet::new(),
        };
        for shard in shards {
            ring.add_shard(shard);
        }
        ring
    }

    /// Adds a shard's virtual nodes. Returns false (and changes nothing)
    /// if the shard is already present.
    pub fn add_shard(&mut self, shard: u32) -> bool {
        if !self.shards.insert(shard) {
            return false;
        }
        for replica in 0..self.replication {
            self.vnodes.push((shard, vnode_salt(self.seed, shard, replica as u32)));
        }
        // (shard, replica) insertion order is not canonical after
        // interleaved add/remove; keep vnodes sorted so equal rings
        // compare equal and iteration order never depends on history.
        self.vnodes.sort_unstable();
        true
    }

    /// Removes a shard's virtual nodes. Returns false if it was not
    /// present.
    pub fn remove_shard(&mut self, shard: u32) -> bool {
        if !self.shards.remove(&shard) {
            return false;
        }
        self.vnodes.retain(|&(s, _)| s != shard);
        true
    }

    /// The shard owning `key`: the one whose virtual node scores the
    /// highest rendezvous weight for the key's hash. Ties (a 2⁻⁶⁴ event)
    /// break toward the higher shard id, deterministically. `None` on an
    /// empty ring.
    pub fn place(&self, key: &str) -> Option<u32> {
        let h = hash_key(self.seed, key);
        self.vnodes
            .iter()
            .map(|&(shard, salt)| (splitmix64(&mut (h ^ salt)), shard))
            .max()
            .map(|(_, s)| s)
    }

    /// Current shard ids, ascending.
    pub fn shards(&self) -> Vec<u32> {
        self.shards.iter().copied().collect()
    }

    /// True iff the ring contains `shard`.
    pub fn contains(&self, shard: u32) -> bool {
        self.shards.contains(&shard)
    }

    /// Number of shards on the ring.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True iff no shards are on the ring.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Virtual nodes per shard.
    pub fn replication(&self) -> usize {
        self.replication
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic_across_constructions() {
        let a = HashRing::new(0..4, 16, 7);
        let b = HashRing::new(0..4, 16, 7);
        for i in 0..200 {
            let key = format!("dataset-{i}");
            assert_eq!(a.place(&key), b.place(&key));
        }
    }

    #[test]
    fn placement_is_pinned_across_releases() {
        // A golden value: if the hash or the vnode layout ever changes,
        // every deployed placement map would silently shuffle. Fail loudly
        // instead.
        let ring = HashRing::new(0..4, 16, 2023);
        let places: Vec<Option<u32>> = ["ssb-0", "ssb-1", "ssb-2", "tenant-alpha", "tenant-beta"]
            .iter()
            .map(|k| ring.place(k))
            .collect();
        // The exact assignment is arbitrary but must never drift.
        let expect: Vec<Option<u32>> = vec![Some(1), Some(3), Some(1), Some(1), Some(2)];
        assert_eq!(places, expect, "ring placement drifted — hash function changed?");
    }

    #[test]
    fn construction_order_does_not_matter() {
        let forward = HashRing::new([0u32, 1, 2, 3], 8, 5);
        let mut scrambled = HashRing::new([3u32, 1], 8, 5);
        scrambled.add_shard(0);
        scrambled.add_shard(2);
        for i in 0..100 {
            let key = format!("k{i}");
            assert_eq!(forward.place(&key), scrambled.place(&key));
        }
    }

    #[test]
    fn empty_ring_places_nothing() {
        let ring = HashRing::new(std::iter::empty(), 8, 1);
        assert!(ring.is_empty());
        assert_eq!(ring.place("anything"), None);
    }

    #[test]
    fn add_and_remove_round_trip() {
        let mut ring = HashRing::new(0..2, 8, 1);
        assert!(!ring.add_shard(1), "duplicate add is a no-op");
        assert!(ring.add_shard(2));
        assert_eq!(ring.shards(), vec![0, 1, 2]);
        assert!(ring.remove_shard(1));
        assert!(!ring.remove_shard(1), "double remove is a no-op");
        assert_eq!(ring.shards(), vec![0, 2]);
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn removal_only_moves_the_removed_shards_keys() {
        let ring = HashRing::new(0..4, 32, 11);
        let mut smaller = ring.clone();
        smaller.remove_shard(2);
        for i in 0..500 {
            let key = format!("k{i}");
            let before = ring.place(&key).unwrap();
            let after = smaller.place(&key).unwrap();
            if before != 2 {
                assert_eq!(before, after, "key {key} moved although its shard survived");
            } else {
                assert_ne!(after, 2, "key {key} still places on the removed shard");
            }
        }
    }

    #[test]
    fn addition_only_moves_keys_onto_the_new_shard() {
        let small = HashRing::new(0..3, 16, 9);
        let mut grown = small.clone();
        grown.add_shard(3);
        for i in 0..500 {
            let key = format!("k{i}");
            let before = small.place(&key).unwrap();
            let after = grown.place(&key).unwrap();
            assert!(
                after == before || after == 3,
                "key {key} moved between surviving shards ({before} → {after})"
            );
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let ring = HashRing::new([7u32], 8, 3);
        for i in 0..50 {
            assert_eq!(ring.place(&format!("x{i}")), Some(7));
        }
    }
}
