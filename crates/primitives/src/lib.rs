//! From-scratch cryptographic and encoding primitives for the EBV
//! reproduction.
//!
//! This crate is the lowest substrate of the workspace. It provides, with no
//! external cryptography dependencies:
//!
//! * [`hash`] — SHA-256, double-SHA-256, HMAC-SHA256, RIPEMD-160 and the
//!   Bitcoin-style `HASH160` composition, plus the fixed-width digest types
//!   [`Hash256`] and [`Hash160`] used as transaction/block identifiers.
//! * [`ec`] — secp256k1 field/curve arithmetic and ECDSA signing and
//!   verification with RFC 6979 deterministic nonces. Script Validation (SV)
//!   cost in both the Bitcoin baseline and the EBV node is dominated by these
//!   verifications, exactly as in the paper's Figs. 16b and 17b.
//! * [`encode`] — Bitcoin-like wire encoding (little-endian integers,
//!   `CompactSize` varints, length-prefixed byte vectors) used for
//!   transactions, blocks, proofs and status data. Serialized sizes feed the
//!   paper's memory-requirement experiments (Figs. 1 and 14).
//! * [`hex`] — minimal hex encoding/decoding for display and test vectors.
//! * [`par`] — the process-wide worker pool behind every data-parallel
//!   validation phase, with lowest-index error selection as its contract.
//! * [`base58`] — Base58Check address encoding (display-level sugar for
//!   examples and tools).

pub mod base58;
pub mod ec;
pub mod encode;
pub mod hash;
pub mod hex;
pub mod par;
pub mod u256;

pub use ec::{PrivateKey, PublicKey, Signature};
pub use encode::{Decodable, DecodeError, Encodable};
pub use hash::{hash160, sha256, sha256d, Hash160, Hash256};
