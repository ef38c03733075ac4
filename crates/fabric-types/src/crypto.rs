//! Cryptographic primitives: SHA-256 and simulated signatures.
//!
//! SHA-256 is implemented from scratch (FIPS 180-4) so the crate carries no
//! cryptography dependency; it is validated against the NIST test vectors in
//! this module's tests. Signatures are *simulated*: a signature is the
//! SHA-256 of the signer's secret key concatenated with the message, and the
//! membership service provider (which, in Fabric, certifies every identity
//! anyway) verifies by recomputation. This preserves message sizes and the
//! sign/verify control flow without claiming asymmetric security — adequate
//! for a performance study (README, "Zero-copy, hash-once payloads", says
//! where the hashing cost is paid and where it is charged in virtual time).

use std::fmt;

use serde::{Deserialize, Serialize};

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Hash256(pub [u8; 32]);

impl Hash256 {
    /// The all-zero digest, used for the genesis block's previous hash.
    pub const ZERO: Hash256 = Hash256([0; 32]);

    /// Hex rendering of the full digest.
    pub fn to_hex(self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Eight hex chars identify a hash in logs without flooding them.
        write!(
            f,
            "Hash256({:02x}{:02x}{:02x}{:02x}…)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher (FIPS 180-4).
///
/// ```
/// use fabric_types::crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bits: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            length_bits: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.length_bits = self.length_bits.wrapping_add(data.len() as u64 * 8);
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Convenience: absorbs a `u64` in big-endian byte order.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_be_bytes());
    }

    /// Convenience: absorbs a `u32` in big-endian byte order.
    pub fn update_u32(&mut self, v: u32) {
        self.update(&v.to_be_bytes());
    }

    /// Finishes the computation and returns the digest.
    pub fn finalize(mut self) -> Hash256 {
        let total_bits = self.length_bits;
        self.update(&[0x80]);
        while self.buffered != 56 {
            self.update(&[0]);
        }
        // Manual length append: bypass update() so length_bits stays fixed.
        self.buffer[56..64].copy_from_slice(&total_bits.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Hash256(out)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One-shot SHA-256 of a byte slice.
pub fn sha256(data: &[u8]) -> Hash256 {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// A simulated signing key (see module docs for the security caveat).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecretKey(pub [u8; 32]);

impl SecretKey {
    /// Derives a key deterministically from a label; used by the simulated
    /// MSP so identical configurations produce identical credentials.
    pub fn derive(label: &str, index: u64) -> Self {
        let mut h = Sha256::new();
        h.update(b"fair-gossip-key/");
        h.update(label.as_bytes());
        h.update_u64(index);
        SecretKey(h.finalize().0)
    }
}

/// A simulated signature over a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature(pub Hash256);

impl Signature {
    /// Size of a signature on the wire. Matches the ballpark of an ECDSA
    /// signature plus encoding overhead, so message-size accounting stays
    /// realistic.
    pub const WIRE_SIZE: usize = 72;
}

/// Signs `message` with `key`.
pub fn sign(key: &SecretKey, message: &[u8]) -> Signature {
    let mut h = Sha256::new();
    h.update(&key.0);
    h.update(message);
    Signature(h.finalize())
}

/// Verifies that `sig` is `message` signed by `key`.
pub fn verify(key: &SecretKey, message: &[u8], sig: &Signature) -> bool {
    sign(key, message) == *sig
}

#[cfg(test)]
mod tests {
    use super::*;

    // NIST FIPS 180-4 test vectors.
    #[test]
    fn sha256_empty() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_448_bits() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_896_bits() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            sha256(msg).to_hex(),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&msg).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_for_awkward_chunkings() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = sha256(&data);
        for chunk in [1usize, 3, 63, 64, 65, 127, 500] {
            let mut h = Sha256::new();
            for part in data.chunks(chunk) {
                h.update(part);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn update_u64_is_big_endian() {
        let mut a = Sha256::new();
        a.update_u64(0x0102030405060708);
        let mut b = Sha256::new();
        b.update(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(a.finalize(), b.finalize());
    }

    #[test]
    fn sign_verify_round_trip() {
        let key = SecretKey::derive("peer", 3);
        let sig = sign(&key, b"endorse me");
        assert!(verify(&key, b"endorse me", &sig));
        assert!(!verify(&key, b"endorse me!", &sig));
        let other = SecretKey::derive("peer", 4);
        assert!(!verify(&other, b"endorse me", &sig));
    }

    #[test]
    fn derived_keys_are_stable_and_distinct() {
        assert_eq!(SecretKey::derive("a", 1), SecretKey::derive("a", 1));
        assert_ne!(SecretKey::derive("a", 1), SecretKey::derive("a", 2));
        assert_ne!(SecretKey::derive("a", 1), SecretKey::derive("b", 1));
    }

    #[test]
    fn hash_debug_is_short_display_is_full() {
        let h = sha256(b"abc");
        assert!(format!("{h:?}").starts_with("Hash256(ba7816bf"));
        assert_eq!(h.to_string().len(), 64);
    }
}
