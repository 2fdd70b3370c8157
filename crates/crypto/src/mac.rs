//! Truncated 64-bit authentication tags for data lines and tree nodes.
//!
//! Secure-memory designs (SGX's MEE, the paper's baseline) attach a 64-bit
//! MAC to every protected unit, computed by an AES-class engine. Ours is
//! AES-CMAC (RFC 4493 / NIST SP 800-38B) truncated to 64 bits — the same
//! tag width as the paper (so the same 2^-64 collision bound discussed in
//! §3.2.2) and the same binding structure: every tag covers the unit's
//! **address**, its **payload**, and the **freshness counter** that
//! protects it against replay. CMAC needs no nonce, so the shadow-entry
//! domain, which binds no freshness counter, is as safe as the others.
//!
//! Every tag method MACs one fixed 80-byte message, five full AES blocks:
//!
//! | block | contents |
//! |-------|----------|
//! | 0     | `(address \| domain << 56)` LE ∥ `counter` LE |
//! | 1..=4 | the 64-byte payload |
//!
//! so each tag is one five-block CBC-MAC chain with subkey K1 folded into
//! the last block. Payloads of any other length (only possible through
//! [`MacEngine::shadow_entry_mac`]) take generic CMAC with K2 padding.
//!
//! # Example
//!
//! ```
//! use soteria_crypto::{mac::MacEngine, MacKey};
//!
//! let engine = MacEngine::new(MacKey::from_bytes([3u8; 32]));
//! let tag = engine.data_mac(0x1000, &[0u8; 64], 7);
//! assert!(engine.verify_data(0x1000, &[0u8; 64], 7, tag));
//! assert!(!engine.verify_data(0x1000, &[0u8; 64], 8, tag)); // replayed counter
//! ```

use crate::aes::Aes128;
use crate::sha256::Sha256;
use crate::MacKey;

/// A 64-bit authentication tag.
pub type Tag64 = u64;

/// Label hashed with the 256-bit [`MacKey`] to derive the AES-128 key.
const KEY_LABEL: &[u8] = b"soteria/mac/aes-cmac-128";

/// Domain-separation labels so tags from different metadata classes can
/// never be confused for one another.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum Domain {
    Data = 1,
    CounterBlock = 2,
    TreeNode = 3,
    ShadowEntry = 4,
}

/// AES-CMAC (RFC 4493) under one AES-128 key.
#[derive(Clone)]
struct Cmac {
    aes: Aes128,
    k1: [u8; 16],
    k2: [u8; 16],
}

impl std::fmt::Debug for Cmac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The subkeys are key material.
        f.write_str("Cmac(..)")
    }
}

/// Doubling in GF(2^128) with the CMAC polynomial (`Rb = 0x87`).
fn dbl(block: [u8; 16]) -> [u8; 16] {
    let x = u128::from_be_bytes(block);
    ((x << 1) ^ if x >> 127 == 1 { 0x87 } else { 0 }).to_be_bytes()
}

fn xor_into(block: &mut [u8; 16], other: &[u8; 16]) {
    for (b, o) in block.iter_mut().zip(other) {
        *b ^= o;
    }
}

impl Cmac {
    fn new(key: [u8; 16]) -> Self {
        let aes = Aes128::new(key);
        let k1 = dbl(aes.encrypt_block(&[0u8; 16]));
        Self {
            aes,
            k1,
            k2: dbl(k1),
        }
    }

    /// The tag over five full blocks (an 80-byte message).
    fn tag5(&self, mut blocks: [[u8; 16]; 5]) -> [u8; 16] {
        xor_into(&mut blocks[4], &self.k1);
        self.aes.cbc_mac(&blocks)
    }

    /// The tag over a message of any length.
    fn tag(&self, message: &[u8]) -> [u8; 16] {
        let mut blocks: Vec<[u8; 16]> = message
            .chunks(16)
            .map(|c| {
                let mut b = [0u8; 16];
                b[..c.len()].copy_from_slice(c);
                b
            })
            .collect();
        let rem = message.len() % 16;
        match blocks.last_mut() {
            Some(last) if rem == 0 => xor_into(last, &self.k1),
            _ => {
                if rem == 0 {
                    blocks.push([0u8; 16]);
                }
                let last = blocks.len() - 1;
                blocks[last][rem] = 0x80;
                xor_into(&mut blocks[last], &self.k2);
            }
        }
        self.aes.cbc_mac(&blocks)
    }
}

/// Keyed engine producing the 64-bit tags used throughout the controller.
///
/// The AES-128 key schedule and both CMAC subkeys are computed once at
/// construction; a tag is then one CBC-MAC chain.
#[derive(Clone, Debug)]
pub struct MacEngine {
    cmac: Cmac,
}

/// The first message block: address with the domain in its top byte,
/// then the binding counter.
fn header(domain: Domain, address: u64, counter: u64) -> [u8; 16] {
    assert!(
        address >> 56 == 0,
        "MAC address {address:#x} exceeds 56 bits"
    );
    let mut block = [0u8; 16];
    block[..8].copy_from_slice(&(address | (domain as u64) << 56).to_le_bytes());
    block[8..].copy_from_slice(&counter.to_le_bytes());
    block
}

fn truncate(tag: [u8; 16]) -> Tag64 {
    soteria_rt::bytes::u64_le(&tag[..8])
}

impl MacEngine {
    /// Creates an engine with the controller's MAC key. The AES-128 key
    /// is the first 16 bytes of `SHA-256(label ∥ key)`.
    pub fn new(key: MacKey) -> Self {
        let mut h = Sha256::new();
        h.update(KEY_LABEL);
        h.update(key.as_bytes());
        let digest = h.finalize();
        Self {
            cmac: Cmac::new(soteria_rt::bytes::chunk(&digest[..16])),
        }
    }

    /// Forces the portable T-table AES path regardless of CPU features
    /// (the equivalence reference for the AES-NI chain).
    pub fn force_software(mut self) -> Self {
        self.cmac.aes = self.cmac.aes.force_software();
        self
    }

    fn tag(&self, domain: Domain, address: u64, payload: &[u8], counter: u64) -> Tag64 {
        let first = header(domain, address, counter);
        if let Ok(line) = <&[u8; 64]>::try_from(payload) {
            let mut blocks = [first; 5];
            for (block, chunk) in blocks[1..].iter_mut().zip(line.chunks_exact(16)) {
                block.copy_from_slice(chunk);
            }
            return truncate(self.cmac.tag5(blocks));
        }
        let mut message = Vec::with_capacity(16 + payload.len());
        message.extend_from_slice(&first);
        message.extend_from_slice(payload);
        truncate(self.cmac.tag(&message))
    }

    /// MAC over an encrypted data line, bound to its address and encryption
    /// counter (the per-line MAC of §2.5).
    pub fn data_mac(&self, address: u64, ciphertext: &[u8; 64], counter: u64) -> Tag64 {
        self.tag(Domain::Data, address, ciphertext, counter)
    }

    /// Verifies a data-line MAC.
    pub fn verify_data(
        &self,
        address: u64,
        ciphertext: &[u8; 64],
        counter: u64,
        tag: Tag64,
    ) -> bool {
        self.data_mac(address, ciphertext, counter) == tag
    }

    /// MAC over a 64-byte counter block (tree leaf), bound to the counter in
    /// its parent ToC node.
    pub fn counter_block_mac(&self, address: u64, block: &[u8; 64], parent_counter: u64) -> Tag64 {
        self.tag(Domain::CounterBlock, address, block, parent_counter)
    }

    /// MAC over the counter payload of a ToC node, bound to the counter in
    /// its parent node (the inter-level dependency of Fig. 2).
    pub fn tree_node_mac(&self, address: u64, counters: &[u64; 8], parent_counter: u64) -> Tag64 {
        let mut payload = [0u8; 64];
        for (i, c) in counters.iter().enumerate() {
            payload[8 * i..8 * i + 8].copy_from_slice(&c.to_le_bytes());
        }
        self.tag(Domain::TreeNode, address, &payload, parent_counter)
    }

    /// MAC over an Anubis shadow-table entry (counter field 0).
    pub fn shadow_entry_mac(&self, address: u64, payload: &[u8]) -> Tag64 {
        self.tag(Domain::ShadowEntry, address, payload, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> MacEngine {
        MacEngine::new(MacKey::from_bytes([0x11; 32]))
    }

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn data_mac_verifies() {
        let e = engine();
        let line = [0xaa; 64];
        let tag = e.data_mac(64, &line, 3);
        assert!(e.verify_data(64, &line, 3, tag));
    }

    #[test]
    fn tamper_detection() {
        let e = engine();
        let mut line = [0xaa; 64];
        let tag = e.data_mac(64, &line, 3);
        line[5] ^= 1;
        assert!(!e.verify_data(64, &line, 3, tag));
    }

    #[test]
    fn replay_detection_via_counter() {
        let e = engine();
        let line = [0xaa; 64];
        let old = e.data_mac(64, &line, 3);
        assert!(!e.verify_data(64, &line, 4, old));
    }

    #[test]
    fn relocation_detection_via_address() {
        let e = engine();
        let line = [0xaa; 64];
        let tag = e.data_mac(64, &line, 3);
        assert!(!e.verify_data(128, &line, 3, tag));
    }

    #[test]
    fn domains_are_separated() {
        // The same bytes in different metadata roles must give different
        // tags, otherwise a counter block could be replayed as a tree node.
        let e = engine();
        let payload = [0u8; 64];
        let counters = [0u64; 8];
        let data = e.data_mac(0, &payload, 0);
        let leaf = e.counter_block_mac(0, &payload, 0);
        let node = e.tree_node_mac(0, &counters, 0);
        assert_ne!(data, leaf);
        assert_ne!(leaf, node);
        assert_ne!(data, node);
    }

    #[test]
    fn tree_node_mac_depends_on_parent_counter() {
        let e = engine();
        let counters = [1u64, 2, 3, 4, 5, 6, 7, 8];
        assert_ne!(
            e.tree_node_mac(0, &counters, 10),
            e.tree_node_mac(0, &counters, 11)
        );
    }

    #[test]
    fn keys_separate_engines() {
        let a = MacEngine::new(MacKey::from_bytes([1; 32]));
        let b = MacEngine::new(MacKey::from_bytes([2; 32]));
        assert_ne!(a.data_mac(0, &[0; 64], 0), b.data_mac(0, &[0; 64], 0));
    }

    #[test]
    fn rfc4493_vectors() {
        // RFC 4493 §4: subkeys and the four example messages (the
        // SP 800-38A plaintext, truncated to 0/16/40/64 bytes).
        let key: [u8; 16] = soteria_rt::bytes::chunk(&hex("2b7e151628aed2a6abf7158809cf4f3c"));
        let message = hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ));
        let cases = [
            (0, "bb1d6929e95937287fa37d129b756746"),
            (16, "070a16b46b4d4144f79bdd9dd04a287c"),
            (40, "dfa66747de9ae63030ca32611497c827"),
            (64, "51f0bebf7e3b9d92fc49741779363cfe"),
        ];
        for cmac in [Cmac::new(key), {
            let mut soft = Cmac::new(key);
            soft.aes = soft.aes.force_software();
            soft
        }] {
            assert_eq!(cmac.k1.to_vec(), hex("fbeed618357133667c85e08f7236a8de"));
            assert_eq!(cmac.k2.to_vec(), hex("f7ddac306ae266ccf90bc11ee46d513b"));
            for (len, tag) in cases {
                assert_eq!(cmac.tag(&message[..len]).to_vec(), hex(tag), "len {len}");
            }
        }
    }

    #[test]
    fn tag_methods_equal_generic_cmac_over_their_80_byte_message() {
        let e = MacEngine::new(MacKey::from_bytes([0x42; 32]));
        let payload: [u8; 64] = core::array::from_fn(|i| (i as u8).wrapping_mul(37) ^ 0x5a);
        let counters: [u64; 8] = core::array::from_fn(|i| 0x0123_4567_89ab_cdef ^ i as u64);
        let mut node_payload = [0u8; 64];
        for (i, c) in counters.iter().enumerate() {
            node_payload[8 * i..8 * i + 8].copy_from_slice(&c.to_le_bytes());
        }
        let (address, counter) = (0x00ab_cdef_0123_4540u64, 0xfeed_f00d_u64);
        let generic = |domain: u64, counter: u64, payload: &[u8]| {
            let mut message = Vec::new();
            message.extend_from_slice(&(address | domain << 56).to_le_bytes());
            message.extend_from_slice(&counter.to_le_bytes());
            message.extend_from_slice(payload);
            truncate(e.cmac.tag(&message))
        };
        assert_eq!(
            e.data_mac(address, &payload, counter),
            generic(1, counter, &payload)
        );
        assert_eq!(
            e.counter_block_mac(address, &payload, counter),
            generic(2, counter, &payload)
        );
        assert_eq!(
            e.tree_node_mac(address, &counters, counter),
            generic(3, counter, &node_payload)
        );
        assert_eq!(
            e.shadow_entry_mac(address, &payload),
            generic(4, 0, &payload)
        );
        // Any other payload length is generic CMAC (K2 padding) over
        // header ∥ payload.
        assert_eq!(
            e.shadow_entry_mac(address, &payload[..23]),
            generic(4, 0, &payload[..23])
        );
    }

    #[test]
    #[should_panic(expected = "exceeds 56 bits")]
    fn addresses_above_56_bits_are_rejected() {
        engine().data_mac(1 << 56, &[0; 64], 0);
    }
}
