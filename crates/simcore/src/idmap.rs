//! Hash maps and sets keyed by ids the simulator assigns itself.
//!
//! Pod ids and request ids are dense integers handed out by the simulator,
//! so they need no defence against adversarial keys: a single multiply by a
//! fixed odd constant (Fibonacci hashing) spreads them over both the low
//! bits a table indexes with and the high bits it tags with, at a fraction
//! of SipHash's cost. Every per-invocation table of the serving path — the
//! pool's and the cluster's pod tables, the open loop's in-flight table,
//! the fault runtime's lost-pod tombstones and the flight recorder's span
//! table — is an [`IdMap`] or [`IdSet`].
//!
//! The hasher is fixed (no per-process seed), so iteration order is
//! reproducible, but it is still an artefact of the table layout: callers
//! only probe these tables by key, count them, or collect and sort what they
//! iterate. No output depends on their iteration order.

// janus-lint: allow(nondeterminism) — keyed lookup only; every caller probes, counts, or sorts what it iterates (see the module docs)
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci hasher for simulator-assigned integer ids.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = (self.0 ^ id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Builder of [`IdHasher`]s (stateless, so every table hashes alike).
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A hash map keyed by simulator-assigned ids; build it with
/// `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A hash set of simulator-assigned ids; build it with `IdSet::default()`.
pub type IdSet<K> = HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pod::PodId;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        IdBuildHasher::default().hash_one(value)
    }

    #[test]
    fn ids_hash_by_one_multiply() {
        assert_eq!(hash_of(0u64), 0);
        assert_eq!(hash_of(1u64), 0x9E37_79B9_7F4A_7C15);
        // A newtype id hashes exactly like its integer.
        assert_eq!(hash_of(PodId(42)), hash_of(42u64));
    }

    #[test]
    fn dense_ids_spread_over_the_high_bits() {
        // The table tags entries with the top 7 bits; consecutive ids must
        // not share them all.
        let tags: IdSet<u64> = (0..1024u64).map(|id| hash_of(id) >> 57).collect();
        assert!(tags.len() > 100, "only {} distinct tags", tags.len());
    }

    #[test]
    fn maps_and_sets_behave_as_std_tables() {
        let mut map: IdMap<PodId, &str> = IdMap::default();
        map.insert(PodId(u64::MAX), "last");
        map.insert(PodId(7), "seven");
        assert_eq!(map.get(&PodId(7)), Some(&"seven"));
        assert_eq!(map.remove(&PodId(u64::MAX)), Some("last"));
        assert_eq!(map.len(), 1);
        let set: IdSet<PodId> = [PodId(3), PodId(3), PodId(9)].into_iter().collect();
        assert_eq!(set.len(), 2);
        assert!(set.contains(&PodId(9)));
    }
}
