//! Cryptographic primitives: SHA-256 and simulated signatures.
//!
//! SHA-256 is implemented from scratch (FIPS 180-4) so the crate carries no
//! cryptography dependency; it is validated against the NIST test vectors in
//! this module's tests.
//!
//! **Which compression runs where.** Every 64-byte block goes through one
//! dispatcher that asks, per call, whether the CPU has the x86 SHA
//! extensions (`is_x86_feature_detected!` for `sha`, `ssse3` and `sse4.1`,
//! a cached flag after the first ask). If it has, the block is folded by
//! `compress_sha_ni`: two rounds per `sha256rnds2`, the message schedule by
//! `sha256msg1` / `sha256msg2`, five to six times the portable speed. On any
//! other CPU, and on every other architecture, it is folded by
//! `compress_portable`, the scalar FIPS 180-4 loop, which is also the tests'
//! reference. Both give the same digest bit for bit — the tests run the NIST
//! vectors and known answers at every padding boundary through each one
//! directly, and a property test compares them on random states and blocks —
//! so no simulated number depends on which one ran, only host time does.
//!
//! **Why there is one `unsafe` call.** `compress_sha_ni` is a safe function
//! compiled with `#[target_feature]`: inside it the intrinsics are safe to
//! call, because message words go in through `_mm_set_epi32` and the state
//! comes out through `_mm_extract_epi32`, so no pointer is ever taken. What
//! cannot be safe is calling it from code compiled without those features:
//! on a CPU that lacks them the instructions fault. So the one call sits in
//! an `unsafe` block directly behind the runtime check that makes it sound.
//! The crate denies `unsafe_code` and allows it on that block alone, and CI
//! fails on any other `unsafe` in the workspace.
//!
//! Signatures are *simulated*: a signature is the SHA-256 of the signer's
//! secret key concatenated with the message, and the membership service
//! provider (which, in Fabric, certifies every identity anyway) verifies by
//! recomputation. This preserves message sizes and the sign/verify control
//! flow without claiming asymmetric security — adequate for a performance
//! study (README, "Zero-copy, hash-once payloads", says where the hashing
//! cost is paid, where it is charged in virtual time, and what SHA-NI saved).

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
        self.absorb(data, compress);
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
    pub fn finalize(self) -> Hash256 {
        self.finish(compress)
    }

    /// [`Sha256::update`] over a given compression function.
    fn absorb(&mut self, data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8; 64])) {
        self.length_bits = self.length_bits.wrapping_add(data.len() as u64 * 8);
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let (blocks, tail) = rest.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// [`Sha256::finalize`] over a given compression function. The padding
    /// is written into the buffer in place: `0x80`, zeros, and the message
    /// length in bits in the last eight bytes — of a second block when
    /// fewer than nine bytes of this one are free.
    fn finish(mut self, compress: impl Fn(&mut [u32; 8], &[u8; 64])) -> Hash256 {
        let used = self.buffered;
        self.buffer[used] = 0x80;
        self.buffer[used + 1..].fill(0);
        if used >= 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer = [0; 64];
        }
        self.buffer[56..].copy_from_slice(&self.length_bits.to_be_bytes());
        compress(&mut self.state, &self.buffer);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Hash256(out)
    }
}

/// Folds one block into `state` with the fastest compression this CPU runs.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if try_compress_sha_ni(state, block) {
        return;
    }
    compress_portable(state, block);
}

/// The SHA-256 compression function in portable scalar code (FIPS 180-4,
/// §6.2.2): the only one on CPUs without SHA-NI, and the tests' reference.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
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
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
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
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Whether this CPU runs [`compress_sha_ni`]: the SHA extensions plus the
/// SSSE3 and SSE4.1 instructions it also uses (SSE2 is part of x86_64).
#[cfg(target_arch = "x86_64")]
fn has_sha_ni() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse4.1")
        && is_x86_feature_detected!("ssse3")
}

/// Folds `block` into `state` with [`compress_sha_ni`] if this CPU has the
/// instructions; otherwise leaves `state` alone and returns `false`.
#[cfg(target_arch = "x86_64")]
fn try_compress_sha_ni(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
    if !has_sha_ni() {
        return false;
    }
    #[allow(unsafe_code)]
    // SAFETY: `compress_sha_ni` is safe code compiled for `sha`, `sse2`,
    // `ssse3` and `sse4.1`; its one precondition is that this CPU executes
    // those instructions, which `has_sha_ni` has just confirmed (SSE2 is part
    // of the x86_64 baseline).
    unsafe {
        compress_sha_ni(state, block);
    }
    true
}

/// The SHA-256 compression function on the x86 SHA extensions. The state
/// travels as the two registers `sha256rnds2` works on, `ABEF` and `CDGH`
/// (highest lane first); each of the 16 steps runs four rounds and extends
/// the message schedule four words ahead with `sha256msg1` / `sha256msg2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 8], block: &[u8; 64]) {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_sha256msg1_epu32,
        _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    let (bytes, _) = block.as_chunks::<4>();
    let word = |i: usize| u32::from_be_bytes(bytes[i]) as i32;
    // Four message words per register, the first in the lowest lane. At
    // step i, `w0` holds words 4i .. 4i + 3, `w1` and `w2` the next eight
    // as far as the schedule has got with them, and `w3` the previous
    // step's four (at step 0, words 12 .. 15) until `sha256msg1` starts
    // words 4i + 12 .. 4i + 15 in it.
    let [mut w0, mut w1, mut w2, mut w3] =
        [0, 4, 8, 12].map(|i| _mm_set_epi32(word(i + 3), word(i + 2), word(i + 1), word(i)));
    let s = state.map(|v| v as i32);
    let abef_in = _mm_set_epi32(s[0], s[1], s[4], s[5]);
    let cdgh_in = _mm_set_epi32(s[2], s[3], s[6], s[7]);
    let (mut abef, mut cdgh) = (abef_in, cdgh_in);
    for i in 0..16 {
        let k = |j: usize| K[4 * i + j] as i32;
        let wk = _mm_add_epi32(w0, _mm_set_epi32(k(3), k(2), k(1), k(0)));
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        if (3..15).contains(&i) {
            // Words 4i + 4 .. 4i + 7: add W[t-7], then the σ1 half.
            let w7 = _mm_alignr_epi8(w0, w3, 4);
            w1 = _mm_sha256msg2_epu32(_mm_add_epi32(w1, w7), w0);
        }
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
        if (1..13).contains(&i) {
            // Words 4i + 12 .. 4i + 15: W[t-16] plus the σ0 half.
            w3 = _mm_sha256msg1_epu32(w3, w0);
        }
        (w0, w1, w2, w3) = (w1, w2, w3, w0);
    }
    let abef = _mm_add_epi32(abef, abef_in);
    let cdgh = _mm_add_epi32(cdgh, cdgh_in);
    *state = [
        _mm_extract_epi32(abef, 3),
        _mm_extract_epi32(abef, 2),
        _mm_extract_epi32(cdgh, 3),
        _mm_extract_epi32(cdgh, 2),
        _mm_extract_epi32(abef, 1),
        _mm_extract_epi32(abef, 0),
        _mm_extract_epi32(cdgh, 1),
        _mm_extract_epi32(cdgh, 0),
    ]
    .map(|v| v as u32);
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
    use proptest::prelude::*;

    /// A block compression function, as the tests hand it to the hasher.
    type Compress = fn(&mut [u32; 8], &[u8; 64]);

    /// `0, 1, 2, …` modulo 251, so no byte value recurs at a block stride.
    fn counting(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    /// Every pinned answer: the NIST FIPS 180-4 vectors, then [`counting`]
    /// messages at each length the padding branches on (55 and 56 bytes
    /// are the last to fit one block and the first to spill, likewise 119
    /// and 120 one block later) — digests from coreutils `sha256sum`.
    fn pinned() -> Vec<(Vec<u8>, &'static str)> {
        let mut cases = vec![
            (
                b"abc".to_vec(),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
                    .to_vec(),
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                vec![b'a'; 1_000_000],
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        let by_length = [
            (
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                1,
                "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
            ),
            (
                55,
                "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
            ),
            (
                56,
                "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
            ),
            (
                63,
                "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
            ),
            (
                64,
                "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
            ),
            (
                65,
                "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781",
            ),
            (
                119,
                "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6",
            ),
            (
                120,
                "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c",
            ),
            (
                127,
                "92ca0fa6651ee2f97b884b7246a562fa71250fedefe5ebf270d31c546bfea976",
            ),
            (
                128,
                "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5",
            ),
            (
                1000,
                "4e4c294b331f7a2099a379bec34b9f9fc03dc46ab465d998f4d683da53487e6d",
            ),
        ];
        cases.extend(by_length.map(|(len, hex)| (counting(len), hex)));
        cases
    }

    /// `sha256(data)` with the given compression and nothing else.
    fn sha256_with(compress: Compress, data: &[u8]) -> Hash256 {
        let mut h = Sha256::new();
        h.absorb(data, compress);
        h.finish(compress)
    }

    fn assert_pinned(compress: Compress) {
        for (data, hex) in pinned() {
            let len = data.len();
            assert_eq!(sha256_with(compress, &data).to_hex(), hex, "{len} bytes");
        }
    }

    /// The SHA-NI compression, or `None` (said on stdout) on a CPU without it.
    fn sha_ni() -> Option<Compress> {
        #[cfg(target_arch = "x86_64")]
        if has_sha_ni() {
            return Some(|state, block| assert!(try_compress_sha_ni(state, block)));
        }
        println!("this CPU has no SHA-NI: only the portable compression is checked");
        None
    }

    #[test]
    fn portable_compression_gives_the_pinned_answers() {
        assert_pinned(compress_portable);
    }

    #[test]
    fn sha_ni_compression_gives_the_pinned_answers() {
        if let Some(sha_ni) = sha_ni() {
            assert_pinned(sha_ni);
        }
    }

    #[test]
    fn sha256_gives_the_pinned_answers() {
        for (data, hex) in pinned() {
            assert_eq!(sha256(&data).to_hex(), hex, "{} bytes", data.len());
        }
    }

    proptest! {
        /// The two compressions agree on any state, not just the ones a
        /// message reaches from the initial hash value.
        #[test]
        fn sha_ni_compression_matches_portable(
            state in proptest::collection::vec(any::<u32>(), 8..9),
            block in proptest::collection::vec(any::<u8>(), 64..65),
        ) {
            let Some(fast) = sha_ni() else { return Ok(()) };
            let state: [u32; 8] = state.try_into().unwrap();
            let block: [u8; 64] = block.try_into().unwrap();
            let (mut ours, mut reference) = (state, state);
            fast(&mut ours, &block);
            compress_portable(&mut reference, &block);
            prop_assert_eq!(ours, reference);
        }

        /// A message split anywhere and fed through the portable
        /// compression digests as the one-shot `sha256` does, which runs
        /// SHA-NI where the CPU has it: the two paths agree at every
        /// length and buffer offset, not only the pinned ones.
        #[test]
        fn split_updates_match_oneshot(
            data in proptest::collection::vec(any::<u8>(), 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                h.absorb(&data[from..cut], compress_portable);
                from = cut;
            }
            prop_assert_eq!(h.finish(compress_portable), sha256(&data));
        }
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
