//! The Bitcoin-baseline validator node (paper §II-B, Fig. 3).
//!
//! Input checking fetches each input's outpoint from the UTXO set (EV+UV
//! in one database probe), runs SV with the fetched locking script, then
//! deletes spent entries and inserts the new outputs — the Fetch / Delete
//! / Insert DBO cycle whose cost dominates Figs. 4 and 5 once the set
//! outgrows the cache budget.

use crate::metrics::BaselineBreakdown;
use crate::sighash::{sv_chunk_batched, sv_chunk_len, DigestChecker, PubkeyCache, SvJob};
use ebv_chain::transaction::SpendSighashMidstate;
use ebv_chain::{Block, BlockHeader, BlockStructureError, OutPoint, BLOCK_SUBSIDY};
use ebv_primitives::hash::Hash256;
use ebv_primitives::par;
use ebv_script::{verify_spend, Script, ScriptError};
use ebv_store::{UtxoEntry, UtxoError, UtxoSet};
use ebv_telemetry::{counter, histogram, span, trace_event};

/// Why a baseline block was rejected.
#[derive(Debug)]
pub enum BaselineError {
    /// `prev_block_hash` does not extend the tip.
    NotOnTip,
    /// Context-free structure failure.
    Structure(BlockStructureError),
    /// An input's outpoint is not in the UTXO set (nonexistent or spent —
    /// indistinguishable here, as the paper notes).
    MissingUtxo {
        tx: usize,
        input: usize,
        outpoint: OutPoint,
    },
    /// Two inputs of the block spend the same outpoint.
    DuplicateSpend(OutPoint),
    /// Script Validation failed.
    SvFailed {
        tx: usize,
        input: usize,
        err: ScriptError,
    },
    /// Inputs worth less than outputs.
    ValueImbalance { tx: usize },
    /// Coinbase claims more than subsidy + fees.
    ExcessiveCoinbase,
    /// Database failure.
    Store(UtxoError),
}

impl From<UtxoError> for BaselineError {
    fn from(e: UtxoError) -> Self {
        BaselineError::Store(e)
    }
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for BaselineError {}

/// Tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct BaselineConfig {
    /// Verify scripts in parallel (DBO stays serial, as in Btcd).
    pub parallel_sv: bool,
    /// Check header PoW.
    pub check_pow: bool,
    /// Settle SV's ECDSA checks through batched verification, the default
    /// (same machinery and chunking as the EBV node; see
    /// [`crate::EbvConfig::batch_verify`]). `false` selects the per-input
    /// strict oracle. Results and the reported minimum-`(tx, input)` error
    /// are identical either way.
    pub batch_verify: bool,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            parallel_sv: true,
            check_pow: true,
            batch_verify: true,
        }
    }
}

/// Undo data for one connected baseline block — the in-memory analogue of
/// Bitcoin's undo (`rev*.dat`) files.
#[derive(Clone, Debug, Default)]
pub struct BaselineUndo {
    /// Entries this block deleted (spent), with their outpoints.
    spent: Vec<(OutPoint, UtxoEntry)>,
    /// Outpoints (and entries) this block created.
    created: Vec<(OutPoint, UtxoEntry)>,
}

/// The baseline node: headers in memory, UTXO set in the status database.
pub struct BaselineNode {
    headers: Vec<BlockHeader>,
    utxos: UtxoSet,
    config: BaselineConfig,
    undo_stack: Vec<BaselineUndo>,
    /// Prepared signer keys, kept for the node's lifetime (size-bounded;
    /// see [`PubkeyCache`]).
    pubkey_cache: PubkeyCache,
    cumulative: BaselineBreakdown,
}

impl BaselineNode {
    /// Boot from a genesis block, inserting its outputs into the UTXO set.
    pub fn new(
        genesis: &Block,
        utxos: UtxoSet,
        config: BaselineConfig,
    ) -> Result<BaselineNode, BaselineError> {
        let mut node = BaselineNode {
            headers: vec![genesis.header],
            utxos,
            config,
            undo_stack: Vec::new(),
            pubkey_cache: PubkeyCache::new(),
            cumulative: BaselineBreakdown::default(),
        };
        node.insert_outputs(genesis, 0)?;
        Ok(node)
    }

    fn insert_outputs(
        &mut self,
        block: &Block,
        height: u32,
    ) -> Result<Vec<(OutPoint, UtxoEntry)>, BaselineError> {
        let mut created = Vec::with_capacity(block.output_count());
        let mut position = 0u32;
        for tx in &block.transactions {
            let txid = tx.txid();
            let coinbase = tx.is_coinbase();
            for (vout, output) in tx.outputs.iter().enumerate() {
                let entry = UtxoEntry {
                    value: output.value,
                    locking_script: output.locking_script.clone(),
                    height,
                    position,
                    coinbase,
                };
                let outpoint = OutPoint::new(txid, vout as u32);
                self.utxos.insert(&outpoint, &entry)?;
                created.push((outpoint, entry));
                position += 1;
            }
        }
        Ok(created)
    }

    /// Height of the best block.
    pub fn tip_height(&self) -> u32 {
        (self.headers.len() - 1) as u32
    }

    /// Hash of the best header.
    pub fn tip_hash(&self) -> Hash256 {
        self.headers.last().expect("genesis present").hash()
    }

    /// The UTXO set (size and DBO statistics).
    pub fn utxos(&self) -> &UtxoSet {
        &self.utxos
    }

    /// Total validation time spent, by phase, since boot.
    pub fn cumulative_breakdown(&self) -> BaselineBreakdown {
        self.cumulative
    }

    /// Validate `block` and, if valid, apply it. Returns per-phase timing.
    ///
    /// Failure before the commit phase leaves the UTXO set untouched; a
    /// store-level I/O error mid-commit is fatal (as in real nodes).
    pub fn process_block(&mut self, block: &Block) -> Result<BaselineBreakdown, BaselineError> {
        let mut breakdown = BaselineBreakdown::default();
        let new_height = self.headers.len() as u32;
        // Per-block trace span, keyed by height: inert (one thread-local
        // peek) unless a caller entered a trace context.
        let _block_span = ebv_telemetry::child_span!("baseline.block", new_height);

        // ---- others: structure ----------------------------------------
        let span_structure = span!("baseline.structure", &mut breakdown.others);
        if block.header.prev_block_hash != self.tip_hash() {
            return Err(BaselineError::NotOnTip);
        }
        match block.check_structure() {
            Err(BlockStructureError::InsufficientWork) if !self.config.check_pow => {}
            Err(e) => return Err(BaselineError::Structure(e)),
            Ok(()) => {}
        }
        drop(span_structure);

        // ---- DBO: fetch every input's UTXO entry (EV+UV) ----------------
        let span_fetch = span!("baseline.dbo_fetch", &mut breakdown.dbo);
        let mut fetched: Vec<Vec<UtxoEntry>> = Vec::with_capacity(block.transactions.len());
        {
            let mut seen = std::collections::HashSet::with_capacity(block.input_count());
            for (i, tx) in block.transactions.iter().enumerate().skip(1) {
                let mut entries = Vec::with_capacity(tx.inputs.len());
                for (j, input) in tx.inputs.iter().enumerate() {
                    if !seen.insert(input.prevout) {
                        return Err(BaselineError::DuplicateSpend(input.prevout));
                    }
                    match self.utxos.fetch(&input.prevout)? {
                        Some(entry) => entries.push(entry),
                        None => {
                            return Err(BaselineError::MissingUtxo {
                                tx: i,
                                input: j,
                                outpoint: input.prevout,
                            })
                        }
                    }
                }
                fetched.push(entries);
            }
        }
        drop(span_fetch);

        // ---- value conservation (others) --------------------------------
        let span_val = span!("baseline.value", &mut breakdown.others);
        let mut total_fees = 0u64;
        for (idx, (tx, entries)) in block.transactions.iter().skip(1).zip(&fetched).enumerate() {
            let in_value: u64 = entries
                .iter()
                .map(|e| e.value)
                .fold(0u64, u64::saturating_add);
            let out_value = tx.total_output_value();
            if in_value < out_value {
                return Err(BaselineError::ValueImbalance { tx: idx + 1 });
            }
            total_fees = total_fees.saturating_add(in_value - out_value);
        }
        let coinbase_out = block.transactions[0].total_output_value();
        if coinbase_out > BLOCK_SUBSIDY.saturating_add(total_fees) {
            return Err(BaselineError::ExcessiveCoinbase);
        }
        drop(span_val);

        // ---- SV ----------------------------------------------------------
        let span_sv = span!("baseline.sv", &mut breakdown.sv);
        let jobs: Vec<(usize, usize, &Script, &Script, Hash256, u32)> = block
            .transactions
            .iter()
            .enumerate()
            .skip(1)
            .zip(&fetched)
            .flat_map(|((i, tx), entries)| {
                let coords: Vec<(u32, u32)> =
                    entries.iter().map(|e| (e.height, e.position)).collect();
                // Serialize the per-transaction sighash prefix once; each
                // input only appends its index.
                let midstate =
                    SpendSighashMidstate::new(tx.version, &coords, &tx.outputs, tx.lock_time);
                tx.inputs.iter().enumerate().map(move |(j, input)| {
                    let digest = midstate.input_digest(j as u32);
                    (
                        i,
                        j,
                        &input.unlocking_script,
                        &entries[j].locking_script,
                        digest,
                        tx.lock_time,
                    )
                })
            })
            .collect();
        // Inputs signed by the same key — in this block or any earlier one
        // — share a single parse + odd-multiples table across SV workers.
        let pubkey_cache = &self.pubkey_cache;
        let run_one =
            |&(i, j, us, lock, digest, lt): &(usize, usize, &Script, &Script, Hash256, u32)| {
                let _input_span = span!("baseline.sv_input");
                verify_spend(
                    us,
                    lock,
                    &DigestChecker::with_context(digest, lt, pubkey_cache),
                )
                .map_err(|err| BaselineError::SvFailed {
                    tx: i,
                    input: j,
                    err,
                })
            };
        // Batched path: same chunking and minimum-`(tx, input)` failure
        // selection as the EBV node (jobs are already in that order).
        type Job<'b> = (usize, usize, &'b Script, &'b Script, Hash256, u32);
        let sv_chunk = |chunk: &[Job<'_>]| -> Result<(), BaselineError> {
            let sv_jobs: Vec<SvJob<'_>> = chunk
                .iter()
                .map(|&(_, _, us, lock, digest, lt)| SvJob {
                    digest,
                    lock_time: lt,
                    unlocking: us,
                    locking: lock,
                })
                .collect();
            sv_chunk_batched(&sv_jobs, pubkey_cache)
                .into_iter()
                .zip(chunk)
                .try_for_each(|(result, &(i, j, ..))| {
                    result.map_err(|err| BaselineError::SvFailed {
                        tx: i,
                        input: j,
                        err,
                    })
                })
        };
        let fan = if self.config.parallel_sv {
            par::fan_out(None)
        } else {
            1
        };
        if self.config.batch_verify {
            let size = sv_chunk_len(jobs.len(), fan);
            let chunks: Vec<&[Job<'_>]> = jobs.chunks(size).collect();
            par::try_map(chunks.len(), fan, |c| sv_chunk(chunks[c]))?;
        } else {
            par::try_map(jobs.len(), fan, |k| run_one(&jobs[k]))?;
        }
        drop(span_sv);

        // ---- DBO: delete spent entries, insert new outputs --------------
        let span_commit = span!("baseline.dbo_commit", &mut breakdown.dbo);
        let mut undo = BaselineUndo::default();
        for (tx, entries) in block.transactions.iter().skip(1).zip(&fetched) {
            for (input, entry) in tx.inputs.iter().zip(entries) {
                self.utxos.delete(&input.prevout, entry)?;
                undo.spent.push((input.prevout, entry.clone()));
            }
        }
        undo.created = self.insert_outputs(block, new_height)?;
        self.undo_stack.push(undo);
        self.headers.push(block.header);
        drop(span_commit);

        counter!("baseline.blocks_connected").inc();
        histogram!("baseline.block_total").record(breakdown.total().as_nanos() as u64);
        trace_event!(
            "baseline.block_connected",
            height = new_height,
            txs = block.transactions.len(),
        );

        self.cumulative += breakdown;
        Ok(breakdown)
    }

    /// Disconnect the tip block, restoring the previous UTXO set (the
    /// reorg primitive, driven by `sync::reorg`). Returns the new tip
    /// height, `Ok(None)` if only genesis remains, or the store error if
    /// the undo data no longer matches the database (formerly a panic).
    pub fn disconnect_tip(&mut self) -> Result<Option<u32>, BaselineError> {
        let Some(undo) = self.undo_stack.pop() else {
            return Ok(None);
        };
        self.headers.pop();
        for (outpoint, entry) in &undo.created {
            self.utxos.delete(outpoint, entry)?;
        }
        for (outpoint, entry) in undo.spent.iter().rev() {
            self.utxos.insert(outpoint, entry)?;
        }
        counter!("baseline.blocks_disconnected").inc();
        trace_event!(
            "baseline.block_disconnected",
            height = self.tip_height() + 1
        );
        Ok(Some(self.tip_height()))
    }

    /// The stored header at `height`, if within the chain.
    pub fn header_at(&self, height: u32) -> Option<&BlockHeader> {
        self.headers.get(height as usize)
    }

    /// Cheap internal-consistency check, asserted by the reorg engine
    /// after every unwind step: one undo record per non-genesis block,
    /// and a non-empty UTXO set (genesis outputs can never be spent out
    /// from under us — nothing below genesis exists to spend them).
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.headers.is_empty() {
            return Err("header chain is empty (genesis missing)".to_string());
        }
        let tip = self.tip_height();
        if self.undo_stack.len() as u32 != tip {
            return Err(format!(
                "undo stack holds {} records but the tip height is {tip}",
                self.undo_stack.len()
            ));
        }
        if self.utxos.size().count == 0 {
            return Err("UTXO set is empty below a live tip".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebv_chain::transaction::{spend_sighash, Transaction, TxIn, TxOut};
    use ebv_chain::{build_block, coinbase_tx, genesis_block};
    use ebv_primitives::ec::PrivateKey;
    use ebv_script::standard::{p2pkh_lock, p2pkh_unlock};
    use ebv_store::{KvStore, StoreConfig};

    fn fresh_utxos() -> UtxoSet {
        UtxoSet::new(KvStore::open(StoreConfig::with_budget(4 << 20)).unwrap())
    }

    /// Genesis pays sk(100); block 1 spends that coinbase output.
    fn fixture() -> (BaselineNode, Block) {
        let sk = PrivateKey::from_seed(100);
        let pk = sk.public_key();
        let genesis = build_block(
            Hash256::ZERO,
            coinbase_tx(0, p2pkh_lock(&pk.address_hash()), Vec::new()),
            Vec::new(),
            0,
            0,
        );
        let node = BaselineNode::new(&genesis, fresh_utxos(), BaselineConfig::default()).unwrap();

        let genesis_cb_txid = genesis.transactions[0].txid();
        let recipient = PrivateKey::from_seed(101).public_key();
        let outputs = vec![TxOut::new(
            BLOCK_SUBSIDY - 500,
            p2pkh_lock(&recipient.address_hash()),
        )];
        // Genesis coinbase output is at (height 0, position 0).
        let digest = spend_sighash(1, &[(0, 0)], &outputs, 0, 0);
        let us = p2pkh_unlock(
            &crate::sighash::sign_input(&sk, &digest),
            &pk.to_compressed(),
        );
        let spend = Transaction {
            version: 1,
            inputs: vec![TxIn::new(OutPoint::new(genesis_cb_txid, 0), us)],
            outputs,
            lock_time: 0,
        };
        let block1 = build_block(
            genesis.header.hash(),
            coinbase_tx(1, p2pkh_lock(&pk.address_hash()), Vec::new()),
            vec![spend],
            1,
            0,
        );
        (node, block1)
    }

    #[test]
    fn valid_block_accepted() {
        let (mut node, block1) = fixture();
        let breakdown = node.process_block(&block1).expect("valid block");
        assert!(breakdown.total() > std::time::Duration::ZERO);
        assert_eq!(node.tip_height(), 1);
        // Genesis coinbase spent; block 1 added 2 outputs.
        assert_eq!(node.utxos().size().count, 2);
    }

    #[test]
    fn rejects_double_spend() {
        let (mut node, block1) = fixture();
        node.process_block(&block1).unwrap();
        // Same spend again on top.
        let sk = PrivateKey::from_seed(100);
        let pk = sk.public_key();
        let spend = block1.transactions[1].clone();
        let block2 = build_block(
            block1.header.hash(),
            coinbase_tx(2, p2pkh_lock(&pk.address_hash()), Vec::new()),
            vec![spend],
            2,
            0,
        );
        match node.process_block(&block2) {
            Err(BaselineError::MissingUtxo {
                tx: 1, input: 0, ..
            }) => {}
            other => panic!("expected missing UTXO, got {other:?}"),
        }
    }

    #[test]
    fn rejects_duplicate_spend_within_block() {
        let (mut node, block1) = fixture();
        let spend_a = block1.transactions[1].clone();
        let mut spend_b = spend_a.clone();
        spend_b.outputs[0].value -= 1; // distinct txid, same prevout
        let block = build_block(
            block1.header.prev_block_hash,
            coinbase_tx(1, Script::new(), Vec::new()),
            vec![spend_a, spend_b],
            1,
            0,
        );
        match node.process_block(&block) {
            Err(BaselineError::DuplicateSpend(_)) => {}
            other => panic!("expected duplicate spend, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_signature() {
        let (mut node, mut block1) = fixture();
        let wrong = PrivateKey::from_seed(999);
        let outputs = block1.transactions[1].outputs.clone();
        let digest = spend_sighash(1, &[(0, 0)], &outputs, 0, 0);
        block1.transactions[1].inputs[0].unlocking_script = p2pkh_unlock(
            &crate::sighash::sign_input(&wrong, &digest),
            &wrong.public_key().to_compressed(),
        );
        // Fix the merkle root after mutating the tx.
        block1.header.merkle_root = block1.compute_merkle_root();
        match node.process_block(&block1) {
            Err(BaselineError::SvFailed {
                tx: 1, input: 0, ..
            }) => {}
            other => panic!("expected SV failure, got {other:?}"),
        }
    }

    #[test]
    fn rejects_value_inflation() {
        let (mut node, mut block1) = fixture();
        block1.transactions[1].outputs[0].value = BLOCK_SUBSIDY * 3;
        block1.header.merkle_root = block1.compute_merkle_root();
        match node.process_block(&block1) {
            Err(BaselineError::ValueImbalance { tx: 1 }) => {}
            other => panic!("expected value imbalance, got {other:?}"),
        }
    }

    #[test]
    fn rejects_excessive_coinbase() {
        let (mut node, block1) = fixture();
        let spend = block1.transactions[1].clone();
        // Coinbase pays itself more than subsidy + fee (fee = 500).
        let cb = coinbase_tx(1, Script::new(), vec![TxOut::new(501, Script::new())]);
        let block = build_block(block1.header.prev_block_hash, cb, vec![spend], 1, 0);
        match node.process_block(&block) {
            Err(BaselineError::ExcessiveCoinbase) => {}
            other => panic!("expected excessive coinbase, got {other:?}"),
        }
    }

    #[test]
    fn fee_exactly_claimable() {
        let (mut node, block1) = fixture();
        let spend = block1.transactions[1].clone();
        // Claim exactly the 500 fee: allowed.
        let cb = coinbase_tx(1, Script::new(), vec![TxOut::new(500, Script::new())]);
        let block = build_block(block1.header.prev_block_hash, cb, vec![spend], 1, 0);
        node.process_block(&block)
            .expect("fee-inclusive coinbase is valid");
    }

    #[test]
    fn rejects_not_on_tip_and_bad_structure() {
        let (mut node, block1) = fixture();
        let mut off_tip = block1.clone();
        off_tip.header.prev_block_hash = Hash256::ZERO;
        assert!(matches!(
            node.process_block(&off_tip),
            Err(BaselineError::NotOnTip)
        ));

        let mut bad_merkle = block1.clone();
        bad_merkle.header.merkle_root = Hash256::ZERO;
        assert!(matches!(
            node.process_block(&bad_merkle),
            Err(BaselineError::Structure(
                BlockStructureError::MerkleMismatch
            ))
        ));
    }

    #[test]
    fn genesis_outputs_enter_utxo_set() {
        let genesis = genesis_block();
        let node = BaselineNode::new(&genesis, fresh_utxos(), BaselineConfig::default()).unwrap();
        assert_eq!(node.utxos().size().count, 1);
        assert_eq!(node.tip_height(), 0);
    }
}
