//! AES-128 block cipher (FIPS-197), implemented from scratch.
//!
//! Three bit-identical implementations live here:
//!
//! * The **hardware path** (AES-NI on x86-64, selected by a one-time
//!   CPUID probe at key-schedule time) — one `aesenc`/`aesdec` per
//!   round; [`Aes128::encrypt_blocks4`] pipelines four independent
//!   blocks (the CTR pad shape) through the AES units, and
//!   `Aes128::cbc_mac` runs a whole CMAC chain with the round keys
//!   held in registers.
//! * The **T-table path** ([`Aes128::encrypt_block_table`] /
//!   [`Aes128::decrypt_block_table`]) — the portable fast path and the
//!   fallback when AES-NI is absent. SubBytes, ShiftRows and MixColumns
//!   fuse into four compile-time 256-entry `u32` tables per direction,
//!   so one round is 16 table lookups and 20 XORs on column words.
//!   Decryption uses the equivalent inverse cipher with InvMixColumns
//!   folded into the decryption round keys.
//! * The **byte-oriented reference path**
//!   ([`Aes128::encrypt_block_reference`] /
//!   [`Aes128::decrypt_block_reference`]) — the original straight-line
//!   FIPS-197 transcription (S-box lookups plus explicit `xtime`
//!   chains). It is kept callable so equivalence is provable by test and
//!   so the benchmark suite can report before/after speedups against it.
//!
//! [`Aes128::encrypt_block`] / [`Aes128::decrypt_block`] dispatch to the
//! fastest available path; the equivalence tests pin all paths to the
//! same bits on every machine they run on.
//!
//! Neither path is side-channel hardened (they model a hardware engine
//! inside a simulator), but both are bit-exact against the FIPS-197
//! vectors and against each other on random inputs.
//!
//! # Example
//!
//! ```
//! use soteria_crypto::aes::Aes128;
//!
//! let cipher = Aes128::new([0u8; 16]);
//! let block = [0x42u8; 16];
//! let ct = cipher.encrypt_block(&block);
//! assert_eq!(cipher.decrypt_block(&ct), block);
//! ```

const NB: usize = 4; // columns in the state
const NR: usize = 10; // rounds for AES-128

/// The AES S-box.
static SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// The inverse AES S-box.
static INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

/// Round constants for key expansion.
static RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

#[inline]
const fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1).wrapping_mul(0x1b))
}

// Constant-multiplier xtime chains for the InvMixColumns coefficients.
// These replace `gmul(x, 0x09/0x0b/0x0d/0x0e)` in every fixed-coefficient
// position: 3 xtime steps and 1–2 XORs instead of an 8-iteration
// branch-per-bit loop.

#[inline]
const fn mul9(x: u8) -> u8 {
    // 9 = 8 + 1
    xtime(xtime(xtime(x))) ^ x
}

#[inline]
const fn mul11(x: u8) -> u8 {
    // 11 = 8 + 2 + 1
    xtime(xtime(xtime(x)) ^ x) ^ x
}

#[inline]
const fn mul13(x: u8) -> u8 {
    // 13 = 8 + 4 + 1
    xtime(xtime(xtime(x) ^ x)) ^ x
}

#[inline]
const fn mul14(x: u8) -> u8 {
    // 14 = 8 + 4 + 2
    xtime(xtime(xtime(x) ^ x) ^ x)
}

/// Multiply two bytes in GF(2^8) with the AES polynomial. Retained as
/// the first-principles reference for the table/chain tests; all
/// fixed-coefficient production paths use the `xtime` chains above or
/// the T-tables.
#[cfg(test)]
#[inline]
const fn gmul(a: u8, b: u8) -> u8 {
    let mut a = a;
    let mut b = b;
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
        i += 1;
    }
    p
}

// ---------------------------------------------------------------------------
// T-tables
// ---------------------------------------------------------------------------
//
// Column words are little-endian: bits 0..8 hold the row-0 byte. With the
// MixColumns matrix rows (2 3 1 1 / 1 2 3 1 / 1 1 2 3 / 3 1 1 2), the
// contribution of the row-r input byte `x` (after SubBytes) to the output
// column is TE_r[x]:
//
//   TE0[x] = 2s |  s<<8  |  s<<16 | 3s<<24      (s = SBOX[x])
//   TE1[x] = 3s | 2s<<8  |  s<<16 |  s<<24
//   TE2[x] =  s | 3s<<8  | 2s<<16 |  s<<24
//   TE3[x] =  s |  s<<8  | 3s<<16 | 2s<<24
//
// The decryption tables fold InvSubBytes into InvMixColumns
// (coefficients 14 11 13 9) for the equivalent inverse cipher:
//
//   TD0[x] = 14u |  9u<<8 | 13u<<16 | 11u<<24   (u = INV_SBOX[x])
//   and rotations thereof.

const fn te_entry(s: u8, rot: u32) -> u32 {
    let e = (xtime(s) as u32)
        | ((s as u32) << 8)
        | ((s as u32) << 16)
        | (((xtime(s) ^ s) as u32) << 24);
    e.rotate_left(8 * rot)
}

const fn td_entry(u: u8, rot: u32) -> u32 {
    let e = (mul14(u) as u32)
        | ((mul9(u) as u32) << 8)
        | ((mul13(u) as u32) << 16)
        | ((mul11(u) as u32) << 24);
    e.rotate_left(8 * rot)
}

const fn build_te(rot: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = te_entry(SBOX[i], rot);
        i += 1;
    }
    t
}

const fn build_td(rot: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = td_entry(INV_SBOX[i], rot);
        i += 1;
    }
    t
}

static TE0: [u32; 256] = build_te(0);
static TE1: [u32; 256] = build_te(1);
static TE2: [u32; 256] = build_te(2);
static TE3: [u32; 256] = build_te(3);

static TD0: [u32; 256] = build_td(0);
static TD1: [u32; 256] = build_td(1);
static TD2: [u32; 256] = build_td(2);
static TD3: [u32; 256] = build_td(3);

/// One-time CPUID probe for hardware AES; `false` off x86-64.
fn aesni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAILABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVAILABLE.get_or_init(|| is_x86_feature_detected!("aes"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Hardware AES (AES-NI). Every function here requires the `aes` CPU
/// feature; callers gate on [`aesni_available`].
#[cfg(target_arch = "x86_64")]
mod ni {
    use core::arch::x86_64::{
        __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
        _mm_loadu_si128, _mm_setzero_si128, _mm_storeu_si128, _mm_xor_si128,
    };

    use super::NR;

    // SAFETY: `_mm_loadu_si128` is an unaligned load, so the only
    // obligation is 16 readable bytes, guaranteed by `&[u8; 16]`; this
    // module is only entered after the `is_x86_feature_detected!("aes")`
    // probe in `super::aesni_available` succeeds.
    #[inline]
    unsafe fn load(bytes: &[u8; 16]) -> __m128i {
        // SAFETY: any 16-byte array is a valid unaligned load source.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    // SAFETY: `_mm_storeu_si128` is an unaligned store into the 16
    // writable bytes of a local array; this module is only entered after
    // the `is_x86_feature_detected!("aes")` probe in
    // `super::aesni_available` succeeds.
    #[inline]
    unsafe fn store(v: __m128i) -> [u8; 16] {
        let mut out = [0u8; 16];
        // SAFETY: `out` is 16 writable bytes.
        unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), v) };
        out
    }

    /// # Safety
    ///
    /// The CPU must support AES-NI (see [`super::aesni_available`]).
    // SAFETY: unsafe solely for `#[target_feature(enable = "aes")]`;
    // every caller dispatches through the `is_x86_feature_detected!`
    // CPUID probe cached in `super::aesni_available` (`use_ni` flag).
    #[target_feature(enable = "aes")]
    pub(super) unsafe fn encrypt_block(
        round_keys: &[[u8; 16]; NR + 1],
        block: &[u8; 16],
    ) -> [u8; 16] {
        let mut b = _mm_xor_si128(load(block), load(&round_keys[0]));
        for rk in &round_keys[1..NR] {
            b = _mm_aesenc_si128(b, load(rk));
        }
        store(_mm_aesenclast_si128(b, load(&round_keys[NR])))
    }

    /// Four independent blocks interleaved: each round key is loaded
    /// once and the four `aesenc` chains overlap in the pipelined AES
    /// units instead of serializing.
    ///
    /// # Safety
    ///
    /// The CPU must support AES-NI (see [`super::aesni_available`]).
    // SAFETY: unsafe solely for `#[target_feature(enable = "aes")]`;
    // every caller dispatches through the `is_x86_feature_detected!`
    // CPUID probe cached in `super::aesni_available` (`use_ni` flag).
    #[target_feature(enable = "aes")]
    pub(super) unsafe fn encrypt_blocks4(
        round_keys: &[[u8; 16]; NR + 1],
        blocks: &[[u8; 16]; 4],
    ) -> [[u8; 16]; 4] {
        let k0 = load(&round_keys[0]);
        let mut b: [__m128i; 4] = [
            _mm_xor_si128(load(&blocks[0]), k0),
            _mm_xor_si128(load(&blocks[1]), k0),
            _mm_xor_si128(load(&blocks[2]), k0),
            _mm_xor_si128(load(&blocks[3]), k0),
        ];
        for rk in &round_keys[1..NR] {
            let k = load(rk);
            b = [
                _mm_aesenc_si128(b[0], k),
                _mm_aesenc_si128(b[1], k),
                _mm_aesenc_si128(b[2], k),
                _mm_aesenc_si128(b[3], k),
            ];
        }
        let k = load(&round_keys[NR]);
        [
            store(_mm_aesenclast_si128(b[0], k)),
            store(_mm_aesenclast_si128(b[1], k)),
            store(_mm_aesenclast_si128(b[2], k)),
            store(_mm_aesenclast_si128(b[3], k)),
        ]
    }

    /// Eight independent blocks interleaved — two CTR-line pads in one
    /// call. Modern cores run 2+ `aesenc` ports with ~3-4 cycle latency,
    /// so eight parallel chains keep the units saturated where four
    /// leave bubbles.
    ///
    /// # Safety
    ///
    /// The CPU must support AES-NI (see [`super::aesni_available`]).
    // SAFETY: unsafe solely for `#[target_feature(enable = "aes")]`;
    // every caller dispatches through the `is_x86_feature_detected!`
    // CPUID probe cached in `super::aesni_available` (`use_ni` flag).
    #[target_feature(enable = "aes")]
    pub(super) unsafe fn encrypt_blocks8(
        round_keys: &[[u8; 16]; NR + 1],
        blocks: &[[u8; 16]; 8],
    ) -> [[u8; 16]; 8] {
        let k0 = load(&round_keys[0]);
        let mut b: [__m128i; 8] = [
            _mm_xor_si128(load(&blocks[0]), k0),
            _mm_xor_si128(load(&blocks[1]), k0),
            _mm_xor_si128(load(&blocks[2]), k0),
            _mm_xor_si128(load(&blocks[3]), k0),
            _mm_xor_si128(load(&blocks[4]), k0),
            _mm_xor_si128(load(&blocks[5]), k0),
            _mm_xor_si128(load(&blocks[6]), k0),
            _mm_xor_si128(load(&blocks[7]), k0),
        ];
        for rk in &round_keys[1..NR] {
            let k = load(rk);
            for lane in &mut b {
                *lane = _mm_aesenc_si128(*lane, k);
            }
        }
        let k = load(&round_keys[NR]);
        core::array::from_fn(|i| store(_mm_aesenclast_si128(b[i], k)))
    }

    /// CBC-MAC chain `X_i = E(X_{i-1} ^ M_i)` from `X_0 = 0`: the round
    /// keys are loaded into registers once for the whole chain, so each
    /// block costs one XOR and ten dependent `aesenc`s.
    ///
    /// # Safety
    ///
    /// The CPU must support AES-NI (see [`super::aesni_available`]).
    // SAFETY: unsafe solely for `#[target_feature(enable = "aes")]`;
    // every caller dispatches through the `is_x86_feature_detected!`
    // CPUID probe cached in `super::aesni_available` (`use_ni` flag).
    #[target_feature(enable = "aes")]
    pub(super) unsafe fn cbc_mac(round_keys: &[[u8; 16]; NR + 1], blocks: &[[u8; 16]]) -> [u8; 16] {
        let mut k = [_mm_setzero_si128(); NR + 1];
        for (reg, rk) in k.iter_mut().zip(round_keys) {
            *reg = load(rk);
        }
        let mut x = _mm_setzero_si128();
        for block in blocks {
            x = _mm_xor_si128(_mm_xor_si128(x, load(block)), k[0]);
            for rk in &k[1..NR] {
                x = _mm_aesenc_si128(x, *rk);
            }
            x = _mm_aesenclast_si128(x, k[NR]);
        }
        store(x)
    }

    /// # Safety
    ///
    /// The CPU must support AES-NI (see [`super::aesni_available`]).
    /// `dec_round_keys` must be the equivalent-inverse schedule
    /// (InvMixColumns applied to the interior round keys) that `aesdec`
    /// consumes.
    // SAFETY: unsafe solely for `#[target_feature(enable = "aes")]`;
    // every caller dispatches through the `is_x86_feature_detected!`
    // CPUID probe cached in `super::aesni_available` (`use_ni` flag).
    #[target_feature(enable = "aes")]
    pub(super) unsafe fn decrypt_block(
        dec_round_keys: &[[u8; 16]; NR + 1],
        block: &[u8; 16],
    ) -> [u8; 16] {
        let mut b = _mm_xor_si128(load(block), load(&dec_round_keys[0]));
        for rk in &dec_round_keys[1..NR] {
            b = _mm_aesdec_si128(b, load(rk));
        }
        store(_mm_aesdeclast_si128(b, load(&dec_round_keys[NR])))
    }
}

/// An AES-128 cipher with a pre-expanded key schedule.
///
/// `new` pre-expands the byte-wise round keys (shared by both paths),
/// packs them into column words for the T-table encryptor, and applies
/// InvMixColumns to rounds 1..NR-1 for the equivalent-inverse decryptor.
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; NR + 1],
    // Byte-wise equivalent-inverse schedule (what `aesdec` consumes);
    // `dec_keys` is the same schedule packed into column words.
    dec_round_keys: [[u8; 16]; NR + 1],
    enc_keys: [[u32; 4]; NR + 1],
    dec_keys: [[u32; 4]; NR + 1],
    use_ni: bool,
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Aes128(..)")
    }
}

#[inline]
fn pack_words(rk: &[u8; 16]) -> [u32; 4] {
    core::array::from_fn(|c| soteria_rt::bytes::u32_le(&rk[4 * c..4 * c + 4]))
}

impl Aes128 {
    /// Expands `key` into the full round-key schedule.
    pub fn new(key: [u8; 16]) -> Self {
        let mut w = [[0u8; 4]; NB * (NR + 1)];
        for (i, word) in w.iter_mut().take(NB).enumerate() {
            word.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        for i in NB..NB * (NR + 1) {
            let mut temp = w[i - 1];
            if i % NB == 0 {
                temp.rotate_left(1);
                for byte in &mut temp {
                    *byte = SBOX[*byte as usize];
                }
                temp[0] ^= RCON[i / NB - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - NB][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; NR + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..NB {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[r * NB + c]);
            }
        }
        let enc_keys = core::array::from_fn(|r| pack_words(&round_keys[r]));
        // Equivalent inverse cipher: dec round r uses round key NR - r,
        // passed through InvMixColumns for the interior rounds.
        let mut dec_round_keys = [[0u8; 16]; NR + 1];
        for (r, rk) in dec_round_keys.iter_mut().enumerate() {
            *rk = round_keys[NR - r];
            if r != 0 && r != NR {
                inv_mix_columns(rk);
            }
        }
        let dec_keys = core::array::from_fn(|r| pack_words(&dec_round_keys[r]));
        Self {
            round_keys,
            dec_round_keys,
            enc_keys,
            dec_keys,
            use_ni: aesni_available(),
        }
    }

    /// Encrypts one 16-byte block on the fastest available path.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        #[cfg(target_arch = "x86_64")]
        if self.use_ni {
            // SAFETY: `use_ni` is set only after the CPUID probe in
            // `aesni_available` confirmed the AES extension.
            return unsafe { ni::encrypt_block(&self.round_keys, block) };
        }
        self.encrypt_block_table(block)
    }

    /// Decrypts one 16-byte block on the fastest available path.
    pub fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        #[cfg(target_arch = "x86_64")]
        if self.use_ni {
            // SAFETY: as in `encrypt_block`.
            return unsafe { ni::decrypt_block(&self.dec_round_keys, block) };
        }
        self.decrypt_block_table(block)
    }

    /// Encrypts four independent blocks — the shape of a 64-byte CTR
    /// pad. The hardware path interleaves them so the pipelined AES
    /// units overlap the rounds of all four blocks.
    pub fn encrypt_blocks4(&self, blocks: &[[u8; 16]; 4]) -> [[u8; 16]; 4] {
        #[cfg(target_arch = "x86_64")]
        if self.use_ni {
            // SAFETY: as in `encrypt_block`.
            return unsafe { ni::encrypt_blocks4(&self.round_keys, blocks) };
        }
        core::array::from_fn(|i| self.encrypt_block_table(&blocks[i]))
    }

    /// Encrypts eight independent blocks — two 64-byte CTR pads per
    /// call, used by page re-encryption to batch the old- and
    /// new-counter keystreams through one hardware dispatch.
    pub fn encrypt_blocks8(&self, blocks: &[[u8; 16]; 8]) -> [[u8; 16]; 8] {
        #[cfg(target_arch = "x86_64")]
        if self.use_ni {
            // SAFETY: as in `encrypt_block`.
            return unsafe { ni::encrypt_blocks8(&self.round_keys, blocks) };
        }
        core::array::from_fn(|i| self.encrypt_block_table(&blocks[i]))
    }

    /// CBC-MAC over `blocks` with a zero IV: the final chaining value
    /// `X_n`, where `X_i = E(X_{i-1} ^ M_i)`. This is the AES-CMAC core
    /// (RFC 4493); the caller folds the CMAC subkey into the last block.
    /// The hardware path keeps the round keys in registers across the
    /// whole chain.
    pub(crate) fn cbc_mac(&self, blocks: &[[u8; 16]]) -> [u8; 16] {
        #[cfg(target_arch = "x86_64")]
        if self.use_ni {
            // SAFETY: as in `encrypt_block`.
            return unsafe { ni::cbc_mac(&self.round_keys, blocks) };
        }
        let mut x = [0u8; 16];
        for block in blocks {
            for (xb, mb) in x.iter_mut().zip(block) {
                *xb ^= mb;
            }
            x = self.encrypt_block_table(&x);
        }
        x
    }

    /// Forces the portable T-table path regardless of CPU features, so
    /// tests can pin hardware output against the software paths.
    pub(crate) fn force_software(mut self) -> Self {
        self.use_ni = false;
        self
    }

    /// Encrypts one 16-byte block (portable T-table path).
    pub fn encrypt_block_table(&self, block: &[u8; 16]) -> [u8; 16] {
        let rk = &self.enc_keys;
        let mut c: [u32; 4] = core::array::from_fn(|i| {
            soteria_rt::bytes::u32_le(&block[4 * i..4 * i + 4]) ^ rk[0][i]
        });
        for k in &rk[1..NR] {
            c = [
                TE0[(c[0] & 0xff) as usize]
                    ^ TE1[((c[1] >> 8) & 0xff) as usize]
                    ^ TE2[((c[2] >> 16) & 0xff) as usize]
                    ^ TE3[(c[3] >> 24) as usize]
                    ^ k[0],
                TE0[(c[1] & 0xff) as usize]
                    ^ TE1[((c[2] >> 8) & 0xff) as usize]
                    ^ TE2[((c[3] >> 16) & 0xff) as usize]
                    ^ TE3[(c[0] >> 24) as usize]
                    ^ k[1],
                TE0[(c[2] & 0xff) as usize]
                    ^ TE1[((c[3] >> 8) & 0xff) as usize]
                    ^ TE2[((c[0] >> 16) & 0xff) as usize]
                    ^ TE3[(c[1] >> 24) as usize]
                    ^ k[2],
                TE0[(c[3] & 0xff) as usize]
                    ^ TE1[((c[0] >> 8) & 0xff) as usize]
                    ^ TE2[((c[1] >> 16) & 0xff) as usize]
                    ^ TE3[(c[2] >> 24) as usize]
                    ^ k[3],
            ];
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        let k = &rk[NR];
        let out: [u32; 4] = [
            sub_word_shifted(c[0], c[1], c[2], c[3]) ^ k[0],
            sub_word_shifted(c[1], c[2], c[3], c[0]) ^ k[1],
            sub_word_shifted(c[2], c[3], c[0], c[1]) ^ k[2],
            sub_word_shifted(c[3], c[0], c[1], c[2]) ^ k[3],
        ];
        words_to_bytes(&out)
    }

    /// Decrypts one 16-byte block (portable T-table path, equivalent
    /// inverse cipher).
    pub fn decrypt_block_table(&self, block: &[u8; 16]) -> [u8; 16] {
        let rk = &self.dec_keys;
        let mut c: [u32; 4] = core::array::from_fn(|i| {
            soteria_rt::bytes::u32_le(&block[4 * i..4 * i + 4]) ^ rk[0][i]
        });
        for k in &rk[1..NR] {
            c = [
                TD0[(c[0] & 0xff) as usize]
                    ^ TD1[((c[3] >> 8) & 0xff) as usize]
                    ^ TD2[((c[2] >> 16) & 0xff) as usize]
                    ^ TD3[(c[1] >> 24) as usize]
                    ^ k[0],
                TD0[(c[1] & 0xff) as usize]
                    ^ TD1[((c[0] >> 8) & 0xff) as usize]
                    ^ TD2[((c[3] >> 16) & 0xff) as usize]
                    ^ TD3[(c[2] >> 24) as usize]
                    ^ k[1],
                TD0[(c[2] & 0xff) as usize]
                    ^ TD1[((c[1] >> 8) & 0xff) as usize]
                    ^ TD2[((c[0] >> 16) & 0xff) as usize]
                    ^ TD3[(c[3] >> 24) as usize]
                    ^ k[2],
                TD0[(c[3] & 0xff) as usize]
                    ^ TD1[((c[2] >> 8) & 0xff) as usize]
                    ^ TD2[((c[1] >> 16) & 0xff) as usize]
                    ^ TD3[(c[0] >> 24) as usize]
                    ^ k[3],
            ];
        }
        // Final round: InvSubBytes + InvShiftRows + AddRoundKey.
        let k = &rk[NR];
        let out: [u32; 4] = [
            inv_sub_word_shifted(c[0], c[3], c[2], c[1]) ^ k[0],
            inv_sub_word_shifted(c[1], c[0], c[3], c[2]) ^ k[1],
            inv_sub_word_shifted(c[2], c[1], c[0], c[3]) ^ k[2],
            inv_sub_word_shifted(c[3], c[2], c[1], c[0]) ^ k[3],
        ];
        words_to_bytes(&out)
    }

    /// Encrypts one block with the original byte-oriented FIPS-197
    /// transcription. Bit-identical to [`Aes128::encrypt_block`]; kept as
    /// the equivalence/benchmark reference.
    pub fn encrypt_block_reference(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut state = *block;
        add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..NR {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, &self.round_keys[round]);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &self.round_keys[NR]);
        state
    }

    /// Decrypts one block with the byte-oriented reference path
    /// (bit-identical to [`Aes128::decrypt_block`]).
    pub fn decrypt_block_reference(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut state = *block;
        add_round_key(&mut state, &self.round_keys[NR]);
        for round in (1..NR).rev() {
            inv_shift_rows(&mut state);
            inv_sub_bytes(&mut state);
            add_round_key(&mut state, &self.round_keys[round]);
            inv_mix_columns(&mut state);
        }
        inv_shift_rows(&mut state);
        inv_sub_bytes(&mut state);
        add_round_key(&mut state, &self.round_keys[0]);
        state
    }
}

/// Final-round helper: assembles an output column from the shifted-row
/// source columns `(a, b, c, d)` = rows 0..3 through the S-box.
#[inline]
fn sub_word_shifted(a: u32, b: u32, c: u32, d: u32) -> u32 {
    (SBOX[(a & 0xff) as usize] as u32)
        | ((SBOX[((b >> 8) & 0xff) as usize] as u32) << 8)
        | ((SBOX[((c >> 16) & 0xff) as usize] as u32) << 16)
        | ((SBOX[(d >> 24) as usize] as u32) << 24)
}

#[inline]
fn inv_sub_word_shifted(a: u32, b: u32, c: u32, d: u32) -> u32 {
    (INV_SBOX[(a & 0xff) as usize] as u32)
        | ((INV_SBOX[((b >> 8) & 0xff) as usize] as u32) << 8)
        | ((INV_SBOX[((c >> 16) & 0xff) as usize] as u32) << 16)
        | ((INV_SBOX[(d >> 24) as usize] as u32) << 24)
}

#[inline]
fn words_to_bytes(words: &[u32; 4]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (c, w) in words.iter().enumerate() {
        out[4 * c..4 * c + 4].copy_from_slice(&w.to_le_bytes());
    }
    out
}

// State layout: state[4*c + r] = byte at row r, column c (column-major as in
// FIPS-197's linear input ordering).

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

fn inv_sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = s[4 * ((c + r) % 4) + r];
        }
    }
}

fn inv_shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * ((c + r) % 4) + r] = s[4 * c + r];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
        state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = mul14(col[0]) ^ mul11(col[1]) ^ mul13(col[2]) ^ mul9(col[3]);
        state[4 * c + 1] = mul9(col[0]) ^ mul14(col[1]) ^ mul11(col[2]) ^ mul13(col[3]);
        state[4 * c + 2] = mul13(col[0]) ^ mul9(col[1]) ^ mul14(col[2]) ^ mul11(col[3]);
        state[4 * c + 3] = mul11(col[0]) ^ mul13(col[1]) ^ mul9(col[2]) ^ mul14(col[3]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn fips197_appendix_b() {
        // FIPS-197 Appendix B worked example.
        let cipher = Aes128::new(hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        let pt = hex16("3243f6a8885a308d313198a2e0370734");
        let ct = cipher.encrypt_block(&pt);
        assert_eq!(ct, hex16("3925841d02dc09fbdc118597196a0b32"));
        assert_eq!(cipher.decrypt_block(&ct), pt);
    }

    #[test]
    fn fips197_appendix_c1() {
        // FIPS-197 Appendix C.1 AES-128 example vector.
        let cipher = Aes128::new(hex16("000102030405060708090a0b0c0d0e0f"));
        let pt = hex16("00112233445566778899aabbccddeeff");
        let ct = cipher.encrypt_block(&pt);
        assert_eq!(ct, hex16("69c4e0d86a7b0430d8cdb78070b4c55a"));
        assert_eq!(cipher.decrypt_block(&ct), pt);
    }

    #[test]
    fn fips197_vectors_on_reference_path() {
        let cipher = Aes128::new(hex16("000102030405060708090a0b0c0d0e0f"));
        let pt = hex16("00112233445566778899aabbccddeeff");
        let ct = cipher.encrypt_block_reference(&pt);
        assert_eq!(ct, hex16("69c4e0d86a7b0430d8cdb78070b4c55a"));
        assert_eq!(cipher.decrypt_block_reference(&ct), pt);
    }

    #[test]
    fn nist_sp800_38a_ecb_vectors() {
        // SP 800-38A F.1.1 ECB-AES128.Encrypt, all four blocks.
        let cipher = Aes128::new(hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        let cases = [
            (
                "6bc1bee22e409f96e93d7e117393172a",
                "3ad77bb40d7a3660a89ecaf32466ef97",
            ),
            (
                "ae2d8a571e03ac9c9eb76fac45af8e51",
                "f5d3d58503b9699de785895a96fdbaaf",
            ),
            (
                "30c81c46a35ce411e5fbc1191a0a52ef",
                "43b1cd7f598ece23881b00e3ed030688",
            ),
            (
                "f69f2445df4f9b17ad2b417be66c3710",
                "7b0c785e27e8ad3f8223207104725dd4",
            ),
        ];
        for (pt, ct) in cases {
            assert_eq!(cipher.encrypt_block(&hex16(pt)), hex16(ct));
        }
    }

    #[test]
    fn ttable_matches_reference_on_random_blocks() {
        // Equivalence proof: the dispatched path (hardware where the CPU
        // has it), the T-table path, and the byte-oriented reference must
        // agree bit-for-bit — both directions, chained blocks so
        // differences propagate.
        let mut key = [0x9cu8; 16];
        for trial in 0..32u8 {
            key[0] = trial.wrapping_mul(41);
            key[7] ^= trial;
            let cipher = Aes128::new(key);
            let mut block: [u8; 16] = core::array::from_fn(|i| (i as u8) ^ trial);
            for _ in 0..64 {
                let fast = cipher.encrypt_block(&block);
                assert_eq!(fast, cipher.encrypt_block_table(&block));
                assert_eq!(fast, cipher.encrypt_block_reference(&block));
                assert_eq!(
                    cipher.decrypt_block(&fast),
                    cipher.decrypt_block_reference(&fast)
                );
                assert_eq!(cipher.decrypt_block(&fast), cipher.decrypt_block_table(&fast));
                assert_eq!(cipher.decrypt_block(&fast), block);
                block = fast;
            }
        }
    }

    #[test]
    fn four_block_batch_matches_single_blocks_on_all_paths() {
        let cipher = Aes128::new([0x5d; 16]);
        let soft = cipher.clone().force_software();
        for trial in 0..16u8 {
            let blocks: [[u8; 16]; 4] = core::array::from_fn(|c| {
                core::array::from_fn(|i| (i as u8).wrapping_mul(29) ^ trial ^ (c as u8) << 6)
            });
            let batched = cipher.encrypt_blocks4(&blocks);
            for (c, b) in blocks.iter().enumerate() {
                assert_eq!(batched[c], cipher.encrypt_block(b));
                assert_eq!(batched[c], cipher.encrypt_block_reference(b));
            }
            // The forced-software cipher must produce the same bits the
            // dispatched (possibly hardware) cipher does.
            assert_eq!(soft.encrypt_blocks4(&blocks), batched);
        }
    }

    #[test]
    fn eight_block_batch_matches_single_blocks_on_all_paths() {
        let cipher = Aes128::new([0x3e; 16]);
        let soft = cipher.clone().force_software();
        for trial in 0..16u8 {
            let blocks: [[u8; 16]; 8] = core::array::from_fn(|c| {
                core::array::from_fn(|i| (i as u8).wrapping_mul(53) ^ trial ^ (c as u8) << 5)
            });
            let batched = cipher.encrypt_blocks8(&blocks);
            for (c, b) in blocks.iter().enumerate() {
                assert_eq!(batched[c], cipher.encrypt_block(b));
                assert_eq!(batched[c], cipher.encrypt_block_reference(b));
            }
            assert_eq!(soft.encrypt_blocks8(&blocks), batched);
        }
    }

    #[test]
    fn forced_software_matches_dispatched_paths() {
        let cipher = Aes128::new([0xa1; 16]);
        let soft = cipher.clone().force_software();
        let mut block = [0x11u8; 16];
        for _ in 0..32 {
            let ct = cipher.encrypt_block(&block);
            assert_eq!(ct, soft.encrypt_block(&block));
            assert_eq!(soft.decrypt_block(&ct), block);
            block = ct;
        }
    }

    #[test]
    fn decrypt_inverts_encrypt_many() {
        let cipher = Aes128::new([0x37; 16]);
        let mut block = [0u8; 16];
        for i in 0..200u32 {
            block[0..4].copy_from_slice(&i.to_le_bytes());
            let ct = cipher.encrypt_block(&block);
            assert_eq!(cipher.decrypt_block(&ct), block);
            block = ct;
        }
    }

    #[test]
    fn distinct_keys_distinct_ciphertexts() {
        let a = Aes128::new([1; 16]);
        let b = Aes128::new([2; 16]);
        let pt = [0u8; 16];
        assert_ne!(a.encrypt_block(&pt), b.encrypt_block(&pt));
    }

    #[test]
    fn gmul_matches_known_values() {
        assert_eq!(gmul(0x57, 0x83), 0xc1); // FIPS-197 §4.2 example
        assert_eq!(gmul(0x57, 0x13), 0xfe);
        assert_eq!(gmul(1, 0xab), 0xab);
        assert_eq!(gmul(0, 0xff), 0);
    }

    #[test]
    fn xtime_chains_match_gmul() {
        for x in 0..=255u8 {
            assert_eq!(mul9(x), gmul(x, 0x09), "x={x:#x}");
            assert_eq!(mul11(x), gmul(x, 0x0b), "x={x:#x}");
            assert_eq!(mul13(x), gmul(x, 0x0d), "x={x:#x}");
            assert_eq!(mul14(x), gmul(x, 0x0e), "x={x:#x}");
        }
    }

    #[test]
    fn te_td_tables_match_first_principles() {
        for x in 0..=255usize {
            let s = SBOX[x];
            let expect_te = (gmul(s, 2) as u32)
                | ((s as u32) << 8)
                | ((s as u32) << 16)
                | ((gmul(s, 3) as u32) << 24);
            assert_eq!(TE0[x], expect_te);
            assert_eq!(TE1[x], expect_te.rotate_left(8));
            assert_eq!(TE2[x], expect_te.rotate_left(16));
            assert_eq!(TE3[x], expect_te.rotate_left(24));
            let u = INV_SBOX[x];
            let expect_td = (gmul(u, 14) as u32)
                | ((gmul(u, 9) as u32) << 8)
                | ((gmul(u, 13) as u32) << 16)
                | ((gmul(u, 11) as u32) << 24);
            assert_eq!(TD0[x], expect_td);
            assert_eq!(TD1[x], expect_td.rotate_left(8));
            assert_eq!(TD2[x], expect_td.rotate_left(16));
            assert_eq!(TD3[x], expect_td.rotate_left(24));
        }
    }

    #[test]
    fn inv_sbox_is_inverse() {
        for i in 0..=255u8 {
            assert_eq!(INV_SBOX[SBOX[i as usize] as usize], i);
        }
    }

    #[test]
    fn shift_rows_round_trip() {
        let mut s: [u8; 16] = core::array::from_fn(|i| i as u8);
        let orig = s;
        shift_rows(&mut s);
        assert_ne!(s, orig);
        inv_shift_rows(&mut s);
        assert_eq!(s, orig);
    }

    #[test]
    fn mix_columns_round_trip() {
        let mut s: [u8; 16] = core::array::from_fn(|i| (i * 17) as u8);
        let orig = s;
        mix_columns(&mut s);
        inv_mix_columns(&mut s);
        assert_eq!(s, orig);
    }
}
