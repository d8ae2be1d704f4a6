//! SHA-256, implemented from FIPS 180-4.
//!
//! An incremental [`Sha256`] hasher plus the one-shot helpers used across the
//! workspace. Every digest goes through one compression entry point,
//! `compress`, which folds a run of whole 64-byte blocks into the state. On
//! x86-64 CPUs with the SHA extensions it runs a SHA-NI kernel; the choice is
//! made at run time by CPU detection and is not configurable. Everywhere else
//! it runs `compress_portable`, the scalar FIPS 180-4 rounds, which is always
//! compiled and is the oracle the differential tests compare the hardware
//! kernel against. Both produce byte-identical digests.

/// Initial hash values (first 32 bits of the fractional parts of the square
/// roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants (first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes).
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

/// A compression kernel: folds every 64-byte block of its input, which is a
/// whole number of blocks, into the state.
type Kernel = fn(&mut [u32; 8], &[u8]);

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Unprocessed bytes (always < 64).
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.absorb(data, compress)
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finish(compress)
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// [`Sha256::update`] through `kernel`; the differential tests pin
    /// the portable kernel with it.
    #[inline(always)]
    fn absorb(&mut self, data: &[u8], kernel: Kernel) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                // Buffer still not full — all input consumed.
                return self;
            }
            kernel(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Hand the kernel every whole block at once so a hardware kernel
        // keeps the state in registers across the run.
        let (blocks, rem) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            kernel(&mut self.state, blocks);
        }
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
        self
    }

    /// [`Sha256::finalize`] through `kernel`.
    #[inline(always)]
    fn finish(mut self, kernel: Kernel) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length. When
        // fewer than 9 bytes are free the padding spills into a second block.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            kernel(&mut self.state, &self.buf);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        kernel(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The one compression entry point: the SHA-NI kernel when this CPU has it,
/// otherwise [`compress_portable`].
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    #[cfg(target_arch = "x86_64")]
    if x86::detected() {
        // SAFETY: `detected` confirmed every extension the kernel's
        // `target_feature` list enables.
        return unsafe { x86::compress(state, blocks) };
    }
    compress_portable(state, blocks)
}

/// Scalar FIPS 180-4 compression: compiled on every target, the only kernel
/// on CPUs without SHA extensions, and the oracle for the hardware kernel.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
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
}

/// The SHA-NI kernel (x86-64 SHA extensions).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether this CPU has every extension [`compress`] is compiled for.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Compress every 64-byte block of `blocks` into `state`.
    ///
    /// # Safety
    ///
    /// The CPU must support SHA, SSE2, SSSE3 and SSE4.1, as [`detected`]
    /// checks.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        // Reverses the bytes of each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // `sha256rnds2` keeps the working variables as two vectors, ABEF and
        // CDGH (highest lane first); `state` loads as DCBA and HGFE.
        // SAFETY: `state` is 8 `u32`s, so both unaligned 16-byte loads are in
        // bounds.
        let (dcba, hgfe) = unsafe {
            (
                _mm_loadu_si128(state.as_ptr().cast()),
                _mm_loadu_si128(state.as_ptr().add(4).cast()),
            )
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        // Message vector `i` from vectors `i - 4 .. i`.
        let schedule = |w4: __m128i, w3: __m128i, w2: __m128i, w1: __m128i| {
            let s = _mm_add_epi32(_mm_sha256msg1_epu32(w4, w3), _mm_alignr_epi8(w1, w2, 4));
            _mm_sha256msg2_epu32(s, w1)
        };

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // Four rounds: message vector `w` plus round constants `4 * i..`.
            let mut rounds = |w: __m128i, i: usize| {
                // SAFETY: `K` has 64 words and `i < 16`, so the 16-byte load at
                // word `4 * i` is in bounds.
                let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * i).cast()) };
                let wk = _mm_add_epi32(w, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            };
            // SAFETY: `block` is 64 bytes, so the four 16-byte loads are in
            // bounds.
            let load = |j: usize| unsafe {
                _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16 * j).cast()), bswap)
            };
            let [mut w0, mut w1, mut w2, mut w3] = [load(0), load(1), load(2), load(3)];
            rounds(w0, 0);
            rounds(w1, 1);
            rounds(w2, 2);
            rounds(w3, 3);
            for i in [4, 8, 12] {
                w0 = schedule(w0, w1, w2, w3);
                rounds(w0, i);
                w1 = schedule(w1, w2, w3, w0);
                rounds(w1, i + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds(w2, i + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds(w3, i + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        // SAFETY: as for the loads above.
        unsafe {
            _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xf0));
            _mm_storeu_si128(
                state.as_mut_ptr().add(4).cast(),
                _mm_alignr_epi8(dchg, feba, 8),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn fips_vectors() {
        // FIPS 180-4 / NIST CAVP known-answer tests.
        assert_eq!(
            hex::encode(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex::encode(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex::encode(&Sha256::digest(
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
            hex::encode(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..255u8).cycle().take(10_000).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 5000, 9999, 10_000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_matches_oneshot() {
        let data: Vec<u8> = (0..200u8).collect();
        let mut h = Sha256::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    /// Differential tests: the dispatched (hardware, where present) kernel
    /// against the portable oracle.
    mod differential {
        use super::super::*;
        use crate::hex;
        use rand::prelude::*;
        use std::io::Write;

        /// The hardware kernel, or `None` after reporting the skip. The
        /// report goes straight to the process's stderr so the test
        /// harness's output capture cannot swallow it.
        fn hardware(test: &str) -> Option<Kernel> {
            #[cfg(target_arch = "x86_64")]
            if x86::detected() {
                return Some(compress);
            }
            let _ = writeln!(
                std::io::stderr(),
                "{test}: skipped the hardware arm: this CPU has no SHA extensions"
            );
            None
        }

        fn digest_with(kernel: Kernel, data: &[u8], split: usize) -> [u8; 32] {
            let mut h = Sha256::new();
            h.absorb(&data[..split], kernel);
            h.absorb(&data[split..], kernel);
            h.finish(kernel)
        }

        #[test]
        fn hardware_compress_matches_portable_on_random_blocks() {
            let Some(hw) = hardware("hardware_compress_matches_portable_on_random_blocks") else {
                return;
            };
            let mut rng = SmallRng::seed_from_u64(0x5a_256);
            let mut blocks = [0u8; 64 * 4];
            for case in 0..12_000 {
                let mut state = [0u32; 8];
                for word in &mut state {
                    *word = rng.gen();
                }
                // Mostly single blocks; every fourth case a multi-block run.
                let n = if case % 4 == 0 {
                    rng.gen_range(2..=4)
                } else {
                    1
                };
                rng.fill_bytes(&mut blocks[..64 * n]);
                let (mut want, mut got) = (state, state);
                compress_portable(&mut want, &blocks[..64 * n]);
                hw(&mut got, &blocks[..64 * n]);
                assert_eq!(got, want, "case {case}: {n} block(s) from {state:08x?}");
            }
        }

        #[test]
        fn hasher_matches_portable_for_every_length_and_split() {
            let Some(hw) = hardware("hasher_matches_portable_for_every_length_and_split") else {
                return;
            };
            let data: Vec<u8> = (0..=255u8).rev().cycle().take(256).collect();
            for len in 0..=256 {
                let msg = &data[..len];
                let want = digest_with(compress_portable, msg, 0);
                for split in [0, 1, len / 3, len / 2, 55, 56, 63, 64, 65, len] {
                    let split = split.min(len);
                    assert_eq!(digest_with(hw, msg, split), want, "len {len} split {split}");
                }
            }
        }

        #[test]
        fn known_answers_through_both_kernels() {
            let million_a = vec![b'a'; 1_000_000];
            let vectors: [(&[u8], &str); 4] = [
                (
                    b"",
                    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                ),
                (
                    b"abc",
                    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                ),
                (
                    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
                ),
                (
                    &million_a,
                    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                ),
            ];
            let mut kernels: Vec<(&str, Kernel)> = vec![("portable", compress_portable)];
            if let Some(hw) = hardware("known_answers_through_both_kernels") {
                kernels.push(("hardware", hw));
            }
            for (name, kernel) in kernels {
                for (msg, want) in vectors {
                    assert_eq!(
                        hex::encode(&digest_with(kernel, msg, msg.len() / 2)),
                        want,
                        "{name} kernel, {}-byte message",
                        msg.len()
                    );
                }
            }
        }
    }
}
