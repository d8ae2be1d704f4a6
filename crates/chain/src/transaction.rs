//! Baseline (Bitcoin-format) transactions.
//!
//! A transaction spends previous outputs by `(txid, vout)` outpoint and
//! creates new outputs, each locked by a script. Signatures bind to the
//! transaction through [`spend_sighash`], the SIGHASH_ALL digest shared with
//! the EBV format.

use ebv_primitives::encode::{write_varint, Decodable, DecodeError, Encodable, Reader};
use ebv_primitives::hash::{sha256, sha256d, Hash256, Sha256};
use ebv_script::Script;

/// Reference to a previous transaction output.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct OutPoint {
    /// Txid of the transaction that created the output.
    pub txid: Hash256,
    /// Index of the output within that transaction.
    pub vout: u32,
}

impl OutPoint {
    /// The null outpoint used by coinbase inputs.
    pub const NULL: OutPoint = OutPoint {
        txid: Hash256::ZERO,
        vout: u32::MAX,
    };

    pub fn new(txid: Hash256, vout: u32) -> OutPoint {
        OutPoint { txid, vout }
    }

    /// Whether this is the coinbase null outpoint.
    pub fn is_null(&self) -> bool {
        *self == OutPoint::NULL
    }

    /// The 36-byte database key used by the baseline UTXO set.
    pub fn to_key(&self) -> [u8; 36] {
        let mut out = [0u8; 36];
        out[..32].copy_from_slice(self.txid.as_bytes());
        out[32..].copy_from_slice(&self.vout.to_le_bytes());
        out
    }
}

impl Encodable for OutPoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.txid.encode(out);
        self.vout.encode(out);
    }
    fn encoded_len(&self) -> usize {
        36
    }
}

impl Decodable for OutPoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(OutPoint {
            txid: Hash256::decode(r)?,
            vout: u32::decode(r)?,
        })
    }
}

/// A transaction input: outpoint plus unlocking script (*Us*).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TxIn {
    pub prevout: OutPoint,
    pub unlocking_script: Script,
    pub sequence: u32,
}

impl TxIn {
    pub fn new(prevout: OutPoint, unlocking_script: Script) -> TxIn {
        TxIn {
            prevout,
            unlocking_script,
            sequence: u32::MAX,
        }
    }
}

impl Encodable for TxIn {
    fn encode(&self, out: &mut Vec<u8>) {
        self.prevout.encode(out);
        self.unlocking_script.encode(out);
        self.sequence.encode(out);
    }
    fn encoded_len(&self) -> usize {
        36 + self.unlocking_script.encoded_len() + 4
    }
}

impl Decodable for TxIn {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(TxIn {
            prevout: OutPoint::decode(r)?,
            unlocking_script: Script::decode(r)?,
            sequence: u32::decode(r)?,
        })
    }
}

/// A transaction output: amount plus locking script (*Ls*).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TxOut {
    /// Amount in base units ("satoshis").
    pub value: u64,
    pub locking_script: Script,
}

impl TxOut {
    pub fn new(value: u64, locking_script: Script) -> TxOut {
        TxOut {
            value,
            locking_script,
        }
    }
}

impl Encodable for TxOut {
    fn encode(&self, out: &mut Vec<u8>) {
        self.value.encode(out);
        self.locking_script.encode(out);
    }
    fn encoded_len(&self) -> usize {
        8 + self.locking_script.encoded_len()
    }
}

impl Decodable for TxOut {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(TxOut {
            value: u64::decode(r)?,
            locking_script: Script::decode(r)?,
        })
    }
}

/// A baseline transaction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Transaction {
    pub version: u32,
    pub inputs: Vec<TxIn>,
    pub outputs: Vec<TxOut>,
    pub lock_time: u32,
}

/// The only sighash type this chain uses.
pub const SIGHASH_ALL: u8 = 0x01;

impl Transaction {
    /// The transaction id: double-SHA256 of the full serialization.
    pub fn txid(&self) -> Hash256 {
        sha256d(&self.to_bytes())
    }

    /// Whether this is a coinbase transaction (single null-outpoint input).
    pub fn is_coinbase(&self) -> bool {
        self.inputs.len() == 1 && self.inputs[0].prevout.is_null()
    }

    /// Total output value. Saturates on (invalid) overflowing totals so the
    /// caller's `sum(in) >= sum(out)` check fails safely.
    pub fn total_output_value(&self) -> u64 {
        self.outputs
            .iter()
            .fold(0u64, |acc, o| acc.saturating_add(o.value))
    }
}

/// The signing digest shared by the baseline and EBV transaction formats.
///
/// It commits to the coordinates of every spent output — `(creation
/// height, absolute position in that block)` — plus the new outputs, the
/// lock time and the signed input's index. Committing to coordinates
/// rather than `(txid, vout)` outpoints makes one signature valid in both
/// representations of the same logical transaction, which is what lets the
/// intermediary node reconstruct EBV blocks from baseline blocks without
/// holding any private keys (the paper's §VI-A setup; see DESIGN.md §4).
pub fn spend_sighash(
    version: u32,
    spent_coords: &[(u32, u32)],
    outputs: &[TxOut],
    lock_time: u32,
    input_index: u32,
) -> Hash256 {
    SpendSighashMidstate::new(version, spent_coords, outputs, lock_time).input_digest(input_index)
}

/// Per-transaction midstate for [`spend_sighash`].
///
/// Everything the digest commits to except the signed input's index is
/// identical for every input of a transaction, so the serialized prefix —
/// version, spent coordinates, outputs, lock time — is built and **hashed**
/// once here; each input clones the SHA-256 state and absorbs only its 8
/// trailing bytes. Validators that previously called `spend_sighash` per
/// input were re-serializing and re-hashing the whole prefix (O(outputs)
/// work) once per input; with the midstate that cost is paid once per
/// transaction.
#[derive(Clone)]
pub struct SpendSighashMidstate {
    /// SHA-256 state with every committed field up to and including
    /// `lock_time` already absorbed; `input_digest` clones it and appends
    /// `input_index` and the sighash type, leaving this state untouched so
    /// the midstate is reusable.
    hasher: Sha256,
}

impl SpendSighashMidstate {
    pub fn new(
        version: u32,
        spent_coords: &[(u32, u32)],
        outputs: &[TxOut],
        lock_time: u32,
    ) -> SpendSighashMidstate {
        let mut prefix = Vec::with_capacity(16 + spent_coords.len() * 8 + outputs.len() * 40);
        version.encode(&mut prefix);
        write_varint(&mut prefix, spent_coords.len() as u64);
        for &(height, position) in spent_coords {
            height.encode(&mut prefix);
            position.encode(&mut prefix);
        }
        write_varint(&mut prefix, outputs.len() as u64);
        for output in outputs {
            output.encode(&mut prefix);
        }
        lock_time.encode(&mut prefix);
        let mut hasher = Sha256::new();
        hasher.update(&prefix);
        SpendSighashMidstate { hasher }
    }

    /// The digest signing `input_index`. Byte-identical to
    /// [`spend_sighash`] with the same fields.
    pub fn input_digest(&self, input_index: u32) -> Hash256 {
        let mut tail = Vec::with_capacity(8);
        input_index.encode(&mut tail);
        (SIGHASH_ALL as u32).encode(&mut tail);
        let mut h = self.hasher.clone();
        h.update(&tail);
        Hash256(sha256(&h.finalize()))
    }
}

impl Encodable for Transaction {
    fn encode(&self, out: &mut Vec<u8>) {
        self.version.encode(out);
        self.inputs.encode(out);
        self.outputs.encode(out);
        self.lock_time.encode(out);
    }
    fn encoded_len(&self) -> usize {
        4 + self.inputs.encoded_len() + self.outputs.encoded_len() + 4
    }
}

impl Decodable for Transaction {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Transaction {
            version: u32::decode(r)?,
            inputs: Vec::decode(r)?,
            outputs: Vec::decode(r)?,
            lock_time: u32::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebv_script::Builder;

    fn sample_tx() -> Transaction {
        Transaction {
            version: 1,
            inputs: vec![TxIn::new(
                OutPoint::new(sha256d(b"prev"), 3),
                Builder::new().push_data(b"sig").into_script(),
            )],
            outputs: vec![
                TxOut::new(50_000, Builder::new().push_data(b"lock0").into_script()),
                TxOut::new(1_000, Builder::new().push_data(b"lock1").into_script()),
            ],
            lock_time: 0,
        }
    }

    #[test]
    fn round_trip() {
        let tx = sample_tx();
        let bytes = tx.to_bytes();
        assert_eq!(bytes.len(), tx.encoded_len());
        assert_eq!(Transaction::from_bytes(&bytes).unwrap(), tx);
    }

    #[test]
    fn txid_changes_with_content() {
        let tx = sample_tx();
        let mut tx2 = tx.clone();
        tx2.outputs[0].value += 1;
        assert_ne!(tx.txid(), tx2.txid());
    }

    #[test]
    fn coinbase_detection() {
        let mut tx = sample_tx();
        assert!(!tx.is_coinbase());
        tx.inputs = vec![TxIn::new(OutPoint::NULL, Script::new())];
        assert!(tx.is_coinbase());
        // Two inputs, one null: not a coinbase.
        tx.inputs
            .push(TxIn::new(OutPoint::new(sha256d(b"x"), 0), Script::new()));
        assert!(!tx.is_coinbase());
    }

    #[test]
    fn outpoint_key_is_injective_on_vout() {
        let a = OutPoint::new(sha256d(b"t"), 0).to_key();
        let b = OutPoint::new(sha256d(b"t"), 1).to_key();
        assert_ne!(a, b);
        assert_eq!(a[..32], b[..32]);
    }

    #[test]
    fn spend_sighash_commits_to_everything() {
        let outputs = vec![TxOut::new(10, Builder::new().push_data(b"l").into_script())];
        let base = spend_sighash(1, &[(5, 2)], &outputs, 0, 0);
        // Any field change alters the digest.
        assert_ne!(spend_sighash(2, &[(5, 2)], &outputs, 0, 0), base);
        assert_ne!(spend_sighash(1, &[(6, 2)], &outputs, 0, 0), base);
        assert_ne!(spend_sighash(1, &[(5, 3)], &outputs, 0, 0), base);
        assert_ne!(spend_sighash(1, &[(5, 2), (5, 3)], &outputs, 0, 0), base);
        assert_ne!(spend_sighash(1, &[(5, 2)], &[], 0, 0), base);
        assert_ne!(spend_sighash(1, &[(5, 2)], &outputs, 1, 0), base);
        assert_ne!(spend_sighash(1, &[(5, 2)], &outputs, 0, 1), base);
        // And it is deterministic.
        assert_eq!(spend_sighash(1, &[(5, 2)], &outputs, 0, 0), base);
    }

    #[test]
    fn midstate_matches_direct_digest() {
        let outputs = vec![
            TxOut::new(10, Builder::new().push_data(b"l").into_script()),
            TxOut::new(7, Builder::new().push_data(b"m").into_script()),
        ];
        let coords = [(5, 2), (9, 0)];
        let mid = SpendSighashMidstate::new(1, &coords, &outputs, 3);
        for input_index in 0..4 {
            assert_eq!(
                mid.input_digest(input_index),
                spend_sighash(1, &coords, &outputs, 3, input_index),
                "input {input_index}"
            );
        }
    }

    #[test]
    fn total_output_value_saturates() {
        let mut tx = sample_tx();
        tx.outputs[0].value = u64::MAX;
        tx.outputs[1].value = 5;
        assert_eq!(tx.total_output_value(), u64::MAX);
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = sample_tx().to_bytes();
        for cut in [0, 1, 10, bytes.len() - 1] {
            assert!(
                Transaction::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }
}
