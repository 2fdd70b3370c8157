#![warn(missing_docs)]

//! Cryptographic primitives for the Soteria secure-NVM reproduction.
//!
//! Secure memory controllers (Intel SGX MEE [Gueron 2016], AMD SME) embed a
//! hardware encryption/authentication engine. This crate is the software
//! stand-in: a from-scratch, dependency-free implementation of
//!
//! * [`aes`] — the AES-128 block cipher (FIPS-197),
//! * [`sha256`] — SHA-256 (FIPS 180-4), the hash of the shadow Merkle tree,
//! * [`ctr`] — counter-mode one-time-pad generation for 64-byte memory
//!   lines, seeded from a per-line encryption counter and the line address,
//! * [`mac`] — the truncated 64-bit authentication tags that secure-memory
//!   designs attach to data lines and integrity-tree nodes.
//!
//! The paper's controller uses an AES-GCM-class engine for its MACs; we
//! use AES-CMAC (RFC 4493) truncated to 64 bits, built on the same AES
//! core as the counter-mode cipher, with the same interface contract
//! (64-bit tag bound to address + payload + freshness counter). See
//! `DESIGN.md` for the substitution rationale.
//!
//! # Example
//!
//! ```
//! use soteria_crypto::{ctr::CounterModeCipher, EncryptionKey};
//!
//! let cipher = CounterModeCipher::new(EncryptionKey::from_bytes([7u8; 16]));
//! let line = [0x5au8; 64];
//! let encrypted = cipher.encrypt_line(&line, 0x1000, 42);
//! let decrypted = cipher.decrypt_line(&encrypted, 0x1000, 42);
//! assert_eq!(line, decrypted);
//! assert_ne!(line, encrypted);
//! ```

pub mod aes;
pub mod ctr;
pub mod mac;
pub mod sha256;

/// A 128-bit key used by the memory encryption engine.
///
/// Separate newtypes for encryption and MAC keys ensure the two roles are
/// never accidentally swapped (C-NEWTYPE).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct EncryptionKey([u8; 16]);

impl EncryptionKey {
    /// Creates a key from raw bytes.
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        Self(bytes)
    }

    /// Returns the raw key bytes.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }
}

impl std::fmt::Debug for EncryptionKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("EncryptionKey(..)")
    }
}

/// A 256-bit key for MAC computation.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacKey([u8; 32]);

impl MacKey {
    /// Creates a key from raw bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Self(bytes)
    }

    /// Returns the raw key bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl std::fmt::Debug for MacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MacKey(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_do_not_leak_in_debug() {
        let k = EncryptionKey::from_bytes([0xab; 16]);
        assert!(!format!("{k:?}").contains("ab"));
        let m = MacKey::from_bytes([0xcd; 32]);
        assert!(!format!("{m:?}").contains("cd"));
    }

    #[test]
    fn key_roundtrip() {
        let bytes = [3u8; 16];
        assert_eq!(EncryptionKey::from_bytes(bytes).as_bytes(), &bytes);
        let bytes = [9u8; 32];
        assert_eq!(MacKey::from_bytes(bytes).as_bytes(), &bytes);
    }

    #[test]
    fn keys_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EncryptionKey>();
        assert_send_sync::<MacKey>();
    }
}
