//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Hashes the Anubis shadow Merkle tree and derives the MAC engine's
//! AES key from the 256-bit [`crate::MacKey`].
//!
//! Two bit-identical compression paths share the FIPS-180 framing code:
//! the portable scalar schedule/rounds loop, and a SHA-NI path
//! (`_mm_sha256rnds2_epu32` / `_mm_sha256msg{1,2}_epu32`) selected at
//! construction by a one-time CPUID probe — the same runtime-dispatch
//! pattern as the AES-NI paths in [`crate::aes`].
//!
//! # Example
//!
//! ```
//! use soteria_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(digest[0], 0xba);
//! ```

/// SHA-256 round constants.
static K: [u32; 64] = [
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

/// One-time CPUID probe for the SHA extensions; `false` off x86-64.
///
/// The SHA-NI compression also uses SSSE3 (`_mm_shuffle_epi8`,
/// `_mm_alignr_epi8`) and SSE4.1 (`_mm_blend_epi16`), so all three
/// features gate the fast path together.
fn shani_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAILABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Hardware SHA-256 (SHA-NI). Every function here requires the `sha`,
/// `ssse3`, and `sse4.1` CPU features; callers gate on
/// [`shani_available`].
#[cfg(target_arch = "x86_64")]
mod ni {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use super::K;

    /// Four message-schedule words `w[4i..4i+4]` from the previous four
    /// vectors (`_mm_sha256msg1/msg2` plus the `w[t-7]` alignr term).
    /// # Safety
    ///
    /// The CPU must support SHA-NI (see [`super::shani_available`]).
    // SAFETY: unsafe solely for `#[target_feature]`; every caller
    // dispatches through the `is_x86_feature_detected!` CPUID probe
    // cached in `super::shani_available` (`use_ni` flag).
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn schedule(v0: __m128i, v1: __m128i, v2: __m128i, v3: __m128i) -> __m128i {
        let t1 = _mm_sha256msg1_epu32(v0, v1);
        let t2 = _mm_alignr_epi8(v3, v2, 4);
        let t3 = _mm_add_epi32(t1, t2);
        _mm_sha256msg2_epu32(t3, v3)
    }

    /// Four SHA-256 rounds over the schedule vector `w` with round
    /// constants `K[4i..4i+4]`; returns the updated `(abef, cdgh)` state.
    /// # Safety
    ///
    /// The CPU must support SHA-NI (see [`super::shani_available`]), and
    /// `i <= 15` so the 16-byte load at `K[4i]` stays in bounds.
    // SAFETY: unsafe solely for `#[target_feature]`; every caller
    // dispatches through the `is_x86_feature_detected!` CPUID probe
    // cached in `super::shani_available` (`use_ni` flag).
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn rounds4(abef: __m128i, cdgh: __m128i, w: __m128i, i: usize) -> (__m128i, __m128i) {
        debug_assert!(i <= 15);
        // SAFETY: `K` holds 64 u32s and `i <= 15`, so the unaligned
        // 16-byte load at word offset `4i` reads `K[4i..4i+4]` in bounds.
        let kv = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * i).cast()) };
        let t1 = _mm_add_epi32(w, kv);
        let cdgh = _mm_sha256rnds2_epu32(cdgh, abef, t1);
        let t2 = _mm_shuffle_epi32(t1, 0x0E);
        let abef = _mm_sha256rnds2_epu32(abef, cdgh, t2);
        (abef, cdgh)
    }

    /// One SHA-256 compression, bit-identical to the portable loop.
    /// # Safety
    ///
    /// The CPU must support SHA-NI (see [`super::shani_available`]).
    // SAFETY: unsafe solely for `#[target_feature]`; every caller
    // dispatches through the `is_x86_feature_detected!` CPUID probe
    // cached in `super::shani_available` (`use_ni` flag).
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        // Big-endian 32-bit loads: byte-swap each u32 lane.
        let mask = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203u64 as i64);

        // SAFETY: `state` is 8 readable u32s — two unaligned 16-byte
        // loads at word offsets 0 and 4 stay in bounds.
        let dcba = unsafe { _mm_loadu_si128(state.as_ptr().cast()) };
        // SAFETY: as above (words 4..8).
        let hgfe = unsafe { _mm_loadu_si128(state.as_ptr().add(4).cast()) };
        // Rearrange [a,b,c,d]/[e,f,g,h] into the abef/cdgh lane order the
        // sha256rnds2 instruction expects.
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
        let abef_save = abef;
        let cdgh_save = cdgh;

        // SAFETY: `block` is 64 readable bytes — four unaligned 16-byte
        // loads at byte offsets 0/16/32/48 stay in bounds.
        let (r0, r1, r2, r3) = unsafe {
            (
                _mm_loadu_si128(block.as_ptr().cast()),
                _mm_loadu_si128(block.as_ptr().add(16).cast()),
                _mm_loadu_si128(block.as_ptr().add(32).cast()),
                _mm_loadu_si128(block.as_ptr().add(48).cast()),
            )
        };
        let w0 = _mm_shuffle_epi8(r0, mask);
        let w1 = _mm_shuffle_epi8(r1, mask);
        let w2 = _mm_shuffle_epi8(r2, mask);
        let w3 = _mm_shuffle_epi8(r3, mask);

        // 16 groups of 4 rounds: the first four consume the message words
        // directly; the remaining twelve extend the schedule through the
        // five-vector rotation (group i builds w[4i..4i+4] from the
        // previous four vectors and round-mixes it in the same step).
        let mut w = [w0, w1, w2, w3, w0];
        (abef, cdgh) = rounds4(abef, cdgh, w0, 0);
        (abef, cdgh) = rounds4(abef, cdgh, w1, 1);
        (abef, cdgh) = rounds4(abef, cdgh, w2, 2);
        (abef, cdgh) = rounds4(abef, cdgh, w3, 3);
        for i in 4..16 {
            let b = (i - 4) % 5;
            let next = schedule(w[b], w[(b + 1) % 5], w[(b + 2) % 5], w[(b + 3) % 5]);
            w[(b + 4) % 5] = next;
            (abef, cdgh) = rounds4(abef, cdgh, next, i);
        }
        let feba = _mm_shuffle_epi32(_mm_add_epi32(abef, abef_save), 0x1B);
        let dchg = _mm_shuffle_epi32(_mm_add_epi32(cdgh, cdgh_save), 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: `state` is 8 writable u32s — two unaligned 16-byte
        // stores at word offsets 0 and 4 stay in bounds.
        unsafe { _mm_storeu_si128(state.as_mut_ptr().cast(), dcba) };
        // SAFETY: as above (words 4..8).
        unsafe { _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgef) };
    }
}

/// An incremental SHA-256 hasher.
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
    use_ni: bool,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
            use_ni: shani_available(),
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// One-shot digest of exactly one 64-byte block.
    ///
    /// For a 64-byte message the Merkle-Damgård padding block is a
    /// constant (`0x80`, zeros, bit length 512), so the digest is two
    /// straight-line compressions with no buffering — the shape of every
    /// shadow-table leaf hash. Bit-identical to [`Sha256::digest`].
    pub fn digest64(data: &[u8; 64]) -> [u8; 32] {
        let mut pad = [0u8; 64];
        pad[0] = 0x80;
        pad[56..64].copy_from_slice(&512u64.to_be_bytes());
        let mut state = H0;
        let use_ni = shani_available();
        Self::compress_raw(&mut state, data, use_ni);
        Self::compress_raw(&mut state, &pad, use_ni);
        Self::state_bytes(&state)
    }

    /// Serializes a compression state to the big-endian digest bytes.
    fn state_bytes(state: &[u32; 8]) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One dispatched compression over a caller-held state — the
    /// primitive behind the block-aligned [`Sha256::digest64`].
    fn compress_raw(state: &mut [u32; 8], block: &[u8; 64], use_ni: bool) {
        #[cfg(target_arch = "x86_64")]
        if use_ni {
            // SAFETY: callers obtain `use_ni` from `shani_available`,
            // the cached CPUID probe.
            unsafe { ni::compress(state, block) };
            return;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = use_ni;
        Self::compress_portable_raw(state, block);
    }

    /// One-shot digest forced through the portable compression loop
    /// regardless of CPU features — the equivalence/bench reference for
    /// the SHA-NI path (bit-identical by the FIPS-180 vectors and the
    /// randomized equivalence tests).
    pub fn digest_portable(data: &[u8]) -> [u8; 32] {
        let mut h = Self::new().force_software();
        h.update(data);
        h.finalize()
    }

    /// Disables the SHA-NI path on this hasher (dispatch-off reference).
    pub fn force_software(mut self) -> Self {
        self.use_ni = false;
        self
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        while data.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&data[..64]);
            self.compress(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffer_len = data.len();
        }
    }

    /// Completes the hash and returns the 32-byte digest.
    ///
    /// Padding is written directly into the block buffer (one or two
    /// compressions, depending on where the length words land) instead of
    /// dribbling zero bytes through `update` one at a time — for short
    /// fixed-size inputs the whole padded tail is a single pre-laid-out
    /// compression.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        self.buffer[self.buffer_len] = 0x80;
        if self.buffer_len >= 56 {
            // No room for the length words: pad this block out and
            // compress, then the length goes in an all-padding block.
            self.buffer[self.buffer_len + 1..].fill(0);
            let block = self.buffer;
            self.compress(&block);
            self.buffer = [0u8; 64];
        } else {
            self.buffer[self.buffer_len + 1..56].fill(0);
        }
        self.buffer[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);
        Self::state_bytes(&self.state)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if self.use_ni {
            // SAFETY: `use_ni` is set only after the CPUID probe in
            // `shani_available` confirmed the sha/ssse3/sse4.1 extensions.
            unsafe { ni::compress(&mut self.state, block) };
            return;
        }
        Self::compress_portable_raw(&mut self.state, block);
    }

    fn compress_portable_raw(state: &mut [u32; 8], block: &[u8; 64]) {
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
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_string() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split {split}");
        }
    }

    #[test]
    fn dispatch_matches_portable_all_lengths() {
        // On SHA-NI hardware `digest` takes the intrinsics path and
        // `digest_portable` the scalar loop; every length in 0..=200
        // exercises all padding layouts through both. (Without SHA-NI the
        // two paths coincide and this is a self-check.)
        let mut data = [0u8; 200];
        let mut x = 0x9e3779b97f4a7c15u64;
        for b in data.iter_mut() {
            // SplitMix64-style fill, deterministic.
            x = x.wrapping_mul(0xbf58476d1ce4e5b9).wrapping_add(0x94d049bb133111eb);
            *b = (x >> 56) as u8;
        }
        for len in 0..=data.len() {
            assert_eq!(
                Sha256::digest(&data[..len]),
                Sha256::digest_portable(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn dispatch_matches_portable_incremental() {
        let data: Vec<u8> = (0..777u32).map(|i| (i.wrapping_mul(97) % 256) as u8).collect();
        for split in [0, 1, 63, 64, 65, 128, 500, 777] {
            let mut fast = Sha256::new();
            fast.update(&data[..split]);
            fast.update(&data[split..]);
            let mut slow = Sha256::new().force_software();
            slow.update(&data[..split]);
            slow.update(&data[split..]);
            assert_eq!(fast.finalize(), slow.finalize(), "split {split}");
        }
    }

    #[test]
    fn fips_vectors_portable_path() {
        // The FIPS-180 vectors above pin the dispatched path; pin the
        // portable reference independently so a broken fallback cannot
        // hide behind SHA-NI hardware.
        assert_eq!(
            hex(&Sha256::digest_portable(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&Sha256::digest_portable(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn digest64_matches_digest() {
        let mut block = [0u8; 64];
        let mut x = 0x243f6a8885a308d3u64;
        for b in block.iter_mut() {
            x = x.wrapping_mul(0xbf58476d1ce4e5b9).wrapping_add(0x94d049bb133111eb);
            *b = (x >> 48) as u8;
        }
        assert_eq!(Sha256::digest64(&block), Sha256::digest(&block));
        assert_eq!(Sha256::digest64(&[0u8; 64]), Sha256::digest(&[0u8; 64]));
        assert_eq!(Sha256::digest64(&[0xff; 64]), Sha256::digest(&[0xff; 64]));
    }

    #[test]
    fn lengths_around_block_boundary() {
        // Each length near the 64-byte boundary exercises a different padding
        // path; compare against self-consistency (prefix property must NOT
        // hold — distinct lengths give distinct digests).
        let data = [0u8; 130];
        let mut seen = std::collections::HashSet::new();
        for len in 54..=66 {
            assert!(seen.insert(Sha256::digest(&data[..len])));
        }
    }
}
