//! A small multiplicative hasher for the simulator's address-keyed
//! maps.
//!
//! The per-access maps (lock-address lookups, the owner ledger,
//! backing memory, directory entries) are keyed by [`crate::Addr`] or
//! [`crate::LineAddr`], one `u64` each, and are looked up on every
//! simulated load, store and ordering decision. The standard
//! library's SipHash defends against adversarial keys, which
//! simulated addresses are not, and costs several times more per
//! lookup than one multiply. Nothing iterates these maps, so the
//! hash function changes no output.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit constant with well-spread bits (2^64 / golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// One multiply per `u64` word. `finish` rotates the product's
/// well-mixed high bits down, because addresses are aligned (their low
/// bits are zero) and the table indexes buckets by the low bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed with [`AddrHasher`].
pub type AddrMap<K, V> = HashMap<K, V, BuildHasherDefault<AddrHasher>>;

/// A `HashSet` hashed with [`AddrHasher`].
pub type AddrSet<K> = HashSet<K, BuildHasherDefault<AddrHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Addr, LineAddr};
    use std::hash::{BuildHasher, Hash};

    fn hash_of(x: impl Hash) -> u64 {
        BuildHasherDefault::<AddrHasher>::default().hash_one(x)
    }

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // Word- and line-aligned addresses must not collapse onto a
        // few buckets: the table takes its index from the low bits.
        for stride in [8u64, 64, 4096] {
            let buckets: HashSet<u64> = (0..1024u64)
                .map(|i| hash_of(Addr(i * stride)) & 1023)
                .collect();
            assert!(
                buckets.len() > 600,
                "stride {stride}: {} buckets of 1024",
                buckets.len()
            );
        }
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: AddrMap<LineAddr, u64> = AddrMap::default();
        for i in 0..5000u64 {
            m.insert(LineAddr(i * 3), i);
        }
        assert_eq!(m.len(), 5000);
        assert!((0..5000u64).all(|i| m.get(&LineAddr(i * 3)) == Some(&i)));
        assert_eq!(m.get(&LineAddr(1)), None);
        let s: AddrSet<Addr> = [Addr(0), Addr(8), Addr(0)].into_iter().collect();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn byte_writes_hash_whole_words() {
        let mut a = AddrHasher::default();
        a.write(&7u64.to_le_bytes());
        let mut b = AddrHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }
}
