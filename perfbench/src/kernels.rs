//! Unit costs of the public crypto and ECC kernels, timed in process.
//!
//! These are the per-call prices the traced pass multiplies by exact
//! work counts to model how much of the controller's time crypto and ECC
//! explain. Each figure is the median over batches of ns per call.

use std::hint::black_box;
use std::time::Instant;

use soteria_crypto::ctr::CounterModeCipher;
use soteria_crypto::mac::MacEngine;
use soteria_crypto::sha256::Sha256;
use soteria_crypto::{EncryptionKey, MacKey};
use soteria_ecc::chipkill::{ChipkillCodec, LineCodec};

use crate::stats::median;

const BATCH: u64 = 2_000;
const BATCHES: usize = 15;

/// Median ns per call of the kernels the controller's datapath uses.
pub struct KernelCosts {
    /// One 64-byte line through AES counter mode.
    pub ctr_line_ns: f64,
    /// One data-line MAC (64-byte ciphertext, address and counter).
    pub data_mac_ns: f64,
    /// One SHA-256 digest of a 64-byte block.
    pub sha256_64b_ns: f64,
    /// One Table 4 chipkill encode of a 64-byte line.
    pub ecc_encode_ns: f64,
    /// One chipkill decode of a clean codeword.
    pub ecc_decode_clean_ns: f64,
}

fn ns_per_call(mut f: impl FnMut(u64)) -> f64 {
    for i in 0..BATCH {
        f(i);
    }
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        for i in 0..BATCH {
            f(i);
        }
        per_call.push(start.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    median(&per_call)
}

/// Times every kernel (about 0.1 s in all).
pub fn measure() -> KernelCosts {
    let cipher = CounterModeCipher::new(EncryptionKey::from_bytes([0x4b; 16]));
    let mac = MacEngine::new(MacKey::from_bytes([0x6d; 32]));
    let codec = ChipkillCodec::table4();
    let mut line = [0u8; 64];
    for (i, b) in line.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(37).wrapping_add(11);
    }
    let clean = codec.encode_line(&line);
    let mut stored = Vec::new();
    KernelCosts {
        ctr_line_ns: ns_per_call(|i| {
            black_box(cipher.encrypt_line(black_box(&line), i * 64, i));
        }),
        data_mac_ns: ns_per_call(|i| {
            black_box(mac.data_mac(i * 64, black_box(&line), i));
        }),
        sha256_64b_ns: ns_per_call(|i| {
            let mut block = line;
            block[0] = i as u8;
            black_box(Sha256::digest64(black_box(&block)));
        }),
        ecc_encode_ns: ns_per_call(|i| {
            let mut l = line;
            l[1] = i as u8;
            codec.encode_line_into(black_box(&l), &mut stored);
            black_box(&stored);
        }),
        ecc_decode_clean_ns: ns_per_call(|_| {
            black_box(codec.decode_line(black_box(&clean)));
        }),
    }
}

/// Records the kernel costs as per-layer metrics.
pub fn report(report: &mut crate::Report, k: &KernelCosts) {
    let samples = (BATCH as usize * BATCHES) as u64;
    report.metric("crypto.ctr_line_ns", k.ctr_line_ns, samples);
    report.metric("crypto.data_mac_ns", k.data_mac_ns, samples);
    report.metric("crypto.sha256_64B_ns", k.sha256_64b_ns, samples);
    report.metric("ecc.encode_ns", k.ecc_encode_ns, samples);
    report.metric("ecc.decode_clean_ns", k.ecc_decode_clean_ns, samples);
}
