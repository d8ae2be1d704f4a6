//! The EBV validator node (paper §IV).
//!
//! State kept in memory: the header chain (80 bytes/block) and the
//! bit-vector set. Block validation never touches a database. After the
//! structural checks, every non-coinbase input is flattened into one job
//! list that the per-input phases share:
//!
//! * **EV** — fold each input's Merkle branch from its `ELs` leaf and
//!   compare against the stored header of the claimed height; parallel
//!   across inputs (`parallel_ev`);
//! * **UV** — probe the bit at `(height, stake + relative)`; sequential,
//!   because intra-block duplicate detection is order-dependent;
//! * value + midstates — per transaction, sum values and build the shared
//!   sighash midstate; parallel across transactions (`parallel_sv`);
//! * **SV** — run `Us` against the locking script found in `ELs`, with the
//!   digest finished from the transaction's midstate; parallel across
//!   inputs (`parallel_sv`);
//! * stake positions of the incoming block are recomputed and compared,
//!   defeating fake-position attacks at packaging time.
//!
//! Every parallel phase reports the minimum-`(tx, input)` failure, so a
//! parallel run returns byte-identical results to a sequential one.

use crate::bitvec::{BitVectorSet, BitVectorSetSize, UvError};
use crate::metrics::EbvBreakdown;
use crate::sighash::{sv_chunk_batched, sv_chunk_len, DigestChecker, PubkeyCache, SvJob};
use crate::tidy::{EbvBlock, EbvTransaction, InputProof, TxIntegrityError};
use ebv_chain::transaction::SpendSighashMidstate;
use ebv_chain::{BlockHeader, BLOCK_SUBSIDY};
use ebv_primitives::hash::Hash256;
use ebv_primitives::par;
use ebv_script::{verify_spend, Script, ScriptError};
use ebv_telemetry::{counter, gauge, histogram, span, trace_event};

/// Why an EBV block was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EbvError {
    /// `prev_block_hash` does not extend the tip.
    NotOnTip,
    /// Header fails its own PoW claim.
    InsufficientWork,
    /// Merkle root does not match the tidy leaves.
    MerkleMismatch,
    /// Block has no transactions or a malformed coinbase position.
    BadCoinbase,
    /// A transaction's stake position differs from the recomputed value.
    StakeMismatch { tx: usize, expected: u32, got: u32 },
    /// Body/hash integrity failure.
    Integrity { tx: usize, err: TxIntegrityError },
    /// An input spends an output from a non-existent or future block.
    BadHeight {
        tx: usize,
        input: usize,
        height: u32,
    },
    /// Existence Validation failed: branch does not fold to the header
    /// root.
    EvFailed { tx: usize, input: usize },
    /// The claimed relative position is outside `ELs`'s outputs.
    PositionOutOfEls { tx: usize, input: usize },
    /// Unspent Validation failed.
    UvFailed {
        tx: usize,
        input: usize,
        err: UvError,
    },
    /// Two inputs of this block spend the same output.
    DuplicateSpend { height: u32, position: u32 },
    /// Script Validation failed.
    SvFailed {
        tx: usize,
        input: usize,
        err: ScriptError,
    },
    /// Inputs are worth less than outputs.
    ValueImbalance { tx: usize },
    /// Coinbase claims more than subsidy + fees.
    ExcessiveCoinbase,
    /// Internal consistency failure in the commit or disconnect path —
    /// state that earlier phases guaranteed was absent. Formerly a panic;
    /// typed so sync and reorg callers can abort cleanly.
    Internal(&'static str),
}

impl std::fmt::Display for EbvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for EbvError {}

/// Tuning knobs (ablations).
#[derive(Clone, Copy, Debug)]
pub struct EbvConfig {
    /// Fold Merkle branches (EV) across inputs in parallel.
    pub parallel_ev: bool,
    /// Verify scripts (SV) — and build the per-transaction sighash
    /// midstates and value sums feeding it — across inputs in parallel.
    pub parallel_sv: bool,
    /// Cap on the threads one parallel phase fans out to (see
    /// [`par::fan_out`]); `None` uses every core.
    pub workers: Option<usize>,
    /// Check the header PoW (disabled in some microbenches).
    pub check_pow: bool,
    /// Settle SV's ECDSA checks through batch verification
    /// ([`crate::sighash::sv_chunk_batched`]), the default: the input list
    /// is split into one chunk per thread
    /// ([`crate::sighash::sv_chunk_len`]), each chunk's signatures are certified by one
    /// random-linear-combination equation, and any input the batch cannot
    /// certify re-runs strictly. `false` selects the per-input strict path,
    /// kept as the oracle the tests and Fig. 16d compare against.
    /// Accept/reject results and the reported minimum-`(tx, input)` error
    /// are identical either way.
    pub batch_verify: bool,
}

impl Default for EbvConfig {
    fn default() -> Self {
        EbvConfig {
            parallel_ev: true,
            parallel_sv: true,
            workers: None,
            check_pow: true,
            batch_verify: true,
        }
    }
}

impl EbvConfig {
    /// Fully sequential pipeline (the ablation baseline).
    pub fn sequential() -> EbvConfig {
        EbvConfig {
            parallel_ev: false,
            parallel_sv: false,
            ..EbvConfig::default()
        }
    }
}

/// One non-coinbase input flattened out of the block: the unit of work for
/// the per-input validation phases. `tx`/`input` are the coordinates error
/// reports use; jobs are built in `(tx, input)` lexicographic order, so
/// "lowest job index" and "minimum `(tx, input)`" coincide.
struct InputJob<'b> {
    tx: usize,
    input: usize,
    us: &'b Script,
    proof: &'b InputProof,
}

/// Undo data for one connected block: everything needed to disconnect it
/// again (the EBV analogue of Bitcoin's undo files, kept in memory here).
#[derive(Clone, Debug, Default)]
pub struct BlockUndo {
    /// Coordinates this block spent, in application order.
    spends: Vec<(u32, u32)>,
    /// Vectors deleted because this block's spends emptied them:
    /// `(height, output count)`.
    deleted_vectors: Vec<(u32, u32)>,
    /// Output count of the block itself (its own vector's width).
    outputs: u32,
}

/// Why [`EbvNode::from_snapshot`] refused to boot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Header chain length does not cover `0..=snapshot.height()`.
    HeaderCount { expected: usize, got: usize },
    /// `headers[height]` does not link to its predecessor's hash.
    BrokenHeaderLink { height: u32 },
    /// A header fails its own PoW claim (only with `check_pow`).
    InsufficientWork { height: u32 },
    /// The snapshot's tip hash is not the hash of the last header.
    TipHashMismatch,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for SnapshotError {}

/// Record a snapshot rejection before returning it: the event goes into
/// the trace (carrying the caller's trace context — e.g. the parallel-IBD
/// interval that tried to boot) and the flight recorder bundles the
/// causal chain. A refused checkpoint is a trust decision worth evidence.
fn reject_snapshot(snapshot_height: u32, err: SnapshotError) -> SnapshotError {
    if ebv_telemetry::enabled() {
        trace_event!(
            "ebv.snapshot_rejected",
            snapshot_height = snapshot_height,
            reason = format!("{err:?}"),
        );
        ebv_telemetry::flight::dump(
            "ebv.snapshot_rejected",
            ebv_telemetry::context::current_trace(),
            &[(
                "snapshot",
                format!("{{\"height\":{snapshot_height},\"reason\":\"{err:?}\"}}"),
            )],
        );
    }
    err
}

/// The EBV node: headers + bit-vector set, nothing else.
pub struct EbvNode {
    headers: Vec<BlockHeader>,
    bitvecs: BitVectorSet,
    config: EbvConfig,
    /// Undo records, one per connected block above `base_height`.
    undo_stack: Vec<BlockUndo>,
    /// Height this node booted at: 0 for a genesis boot, the checkpoint
    /// height for a snapshot boot. Blocks at or below it carry no undo
    /// records and cannot be disconnected.
    base_height: u32,
    /// Prepared signer keys, kept for the node's lifetime (size-bounded;
    /// see [`PubkeyCache`]).
    pubkey_cache: PubkeyCache,
    /// Cumulative validation-time breakdown across all processed blocks.
    cumulative: EbvBreakdown,
}

impl EbvNode {
    /// Boot from a genesis block (validated structurally only).
    pub fn new(genesis: &EbvBlock, config: EbvConfig) -> EbvNode {
        let mut node = EbvNode {
            headers: vec![genesis.header],
            bitvecs: BitVectorSet::new(),
            config,
            undo_stack: Vec::new(),
            base_height: 0,
            pubkey_cache: PubkeyCache::new(),
            cumulative: EbvBreakdown::default(),
        };
        node.bitvecs.insert_block(0, genesis.output_count());
        node
    }

    /// Boot from a state checkpoint instead of replaying from genesis.
    ///
    /// `headers` must be the full header chain `0..=snapshot.height()` —
    /// EV needs every historical Merkle root, so snapshot boot trades only
    /// the *replay*, not the (cheap, 80 bytes/block) header download. The
    /// chain is verified here: linkage, PoW (under `check_pow`), and that
    /// its tip hashes to the snapshot's claimed tip. The bit-vector set
    /// itself is taken on trust — snapshot-parallel IBD discharges that
    /// trust at the stitch, where a predecessor interval must reproduce
    /// these exact bytes.
    pub fn from_snapshot(
        snapshot: &crate::bitvec::BitVectorSnapshot,
        headers: Vec<BlockHeader>,
        config: EbvConfig,
    ) -> Result<EbvNode, SnapshotError> {
        let expected = snapshot.height() as usize + 1;
        if headers.len() != expected {
            return Err(reject_snapshot(
                snapshot.height(),
                SnapshotError::HeaderCount {
                    expected,
                    got: headers.len(),
                },
            ));
        }
        let mut prev_hash = None;
        for (h, header) in headers.iter().enumerate() {
            if let Some(prev) = prev_hash {
                if header.prev_block_hash != prev {
                    return Err(reject_snapshot(
                        snapshot.height(),
                        SnapshotError::BrokenHeaderLink { height: h as u32 },
                    ));
                }
            }
            if config.check_pow && !header.meets_target() {
                return Err(reject_snapshot(
                    snapshot.height(),
                    SnapshotError::InsufficientWork { height: h as u32 },
                ));
            }
            prev_hash = Some(header.hash());
        }
        if prev_hash != Some(snapshot.tip_hash()) {
            return Err(reject_snapshot(
                snapshot.height(),
                SnapshotError::TipHashMismatch,
            ));
        }
        Ok(EbvNode {
            headers,
            bitvecs: snapshot.restore(),
            config,
            undo_stack: Vec::new(),
            base_height: snapshot.height(),
            pubkey_cache: PubkeyCache::new(),
            cumulative: EbvBreakdown::default(),
        })
    }

    /// Serialize the node's full validation state at the current tip.
    pub fn snapshot(&self) -> crate::bitvec::BitVectorSnapshot {
        self.bitvecs.snapshot(self.tip_height(), self.tip_hash())
    }

    /// Digest of the canonical snapshot encoding: two nodes at the same
    /// state — however they got there — produce the same digest.
    pub fn state_digest(&self) -> Hash256 {
        self.snapshot().digest()
    }

    /// Height this node booted at (0 unless booted from a snapshot).
    pub fn base_height(&self) -> u32 {
        self.base_height
    }

    /// Height of the best block.
    pub fn tip_height(&self) -> u32 {
        (self.headers.len() - 1) as u32
    }

    /// Hash of the best block's header.
    pub fn tip_hash(&self) -> Hash256 {
        self.headers.last().expect("genesis present").hash()
    }

    /// The stored header at `height`, if within the chain.
    pub fn header_at(&self, height: u32) -> Option<&BlockHeader> {
        self.headers.get(height as usize)
    }

    /// Memory requirement of the status data (bit-vector set).
    pub fn status_memory(&self) -> BitVectorSetSize {
        self.bitvecs.memory()
    }

    /// Outputs still unspent across all blocks.
    pub fn total_unspent(&self) -> u64 {
        self.bitvecs.total_unspent()
    }

    /// Direct bit-vector access (tests, figures).
    pub fn bitvecs(&self) -> &BitVectorSet {
        &self.bitvecs
    }

    /// Total validation time spent, by phase, since boot.
    pub fn cumulative_breakdown(&self) -> EbvBreakdown {
        self.cumulative
    }

    /// Validate `block` and, if valid, append it (storing the header and
    /// updating the bit-vector set). Returns the per-phase timing.
    ///
    /// Per-input work is flattened into one job list and driven through the
    /// phases in order: EV (parallel), UV (sequential — the duplicate-spend
    /// scan is order-dependent), per-transaction value + sighash-midstate
    /// construction (parallel), SV (parallel). Each parallel phase reports
    /// the failure with the minimum `(tx, input)` coordinate — exactly the
    /// error a sequential scan in job order would hit first — so parallel
    /// and sequential configurations are observationally identical.
    pub fn process_block(&mut self, block: &EbvBlock) -> Result<EbvBreakdown, EbvError> {
        let mut breakdown = EbvBreakdown::default();
        let new_height = self.headers.len() as u32;
        let config = self.config;
        // Per-block trace span, keyed by height: inert (one thread-local
        // peek) unless a caller entered a trace context.
        let _block_span = ebv_telemetry::child_span!("ebv.block", new_height);

        // ---- "others": structural checks ------------------------------
        let span_structure = span!("ebv.structure", &mut breakdown.others);
        if block.header.prev_block_hash != self.tip_hash() {
            return Err(EbvError::NotOnTip);
        }
        if config.check_pow && !block.header.meets_target() {
            return Err(EbvError::InsufficientWork);
        }
        if block.transactions.is_empty() || !block.transactions[0].is_coinbase() {
            return Err(EbvError::BadCoinbase);
        }
        if block.transactions[1..]
            .iter()
            .any(EbvTransaction::is_coinbase)
        {
            return Err(EbvError::BadCoinbase);
        }
        let stakes = block.expected_stake_positions();
        for (i, tx) in block.transactions.iter().enumerate() {
            if tx.tidy.stake_position != stakes[i] {
                return Err(EbvError::StakeMismatch {
                    tx: i,
                    expected: stakes[i],
                    got: tx.tidy.stake_position,
                });
            }
            tx.check_integrity()
                .map_err(|err| EbvError::Integrity { tx: i, err })?;
        }
        if block.compute_merkle_root() != block.header.merkle_root {
            return Err(EbvError::MerkleMismatch);
        }
        // Flatten every non-coinbase input into the job list the per-input
        // phases share. Order is (tx, input) lexicographic.
        let jobs: Vec<InputJob<'_>> = block
            .transactions
            .iter()
            .enumerate()
            .skip(1)
            .flat_map(|(i, tx)| {
                tx.bodies.iter().enumerate().map(move |(j, body)| InputJob {
                    tx: i,
                    input: j,
                    us: &body.us,
                    proof: body
                        .proof
                        .as_ref()
                        .expect("non-coinbase checked in integrity"),
                })
            })
            .collect();
        drop(span_structure);

        // ---- EV: Merkle branches against stored headers ----------------
        // `header_at` already rejects any height >= new_height (the header
        // chain holds exactly the blocks below the new one), so a
        // same-block or future reference fails here with `BadHeight`.
        let span_ev = span!("ebv.ev", &mut breakdown.ev);
        let headers = &self.headers;
        let ev_one = |job: &InputJob<'_>| -> Result<(), EbvError> {
            let proof = job.proof;
            let Some(header) = headers.get(proof.height as usize) else {
                return Err(EbvError::BadHeight {
                    tx: job.tx,
                    input: job.input,
                    height: proof.height,
                });
            };
            // The leaf hash is computed once here and folded straight into
            // the branch; no other phase rehashes `ELs`.
            if !proof
                .mbr
                .verify(&proof.els.leaf_hash(), &header.merkle_root)
            {
                return Err(EbvError::EvFailed {
                    tx: job.tx,
                    input: job.input,
                });
            }
            if proof.spent_output().is_none() {
                return Err(EbvError::PositionOutOfEls {
                    tx: job.tx,
                    input: job.input,
                });
            }
            Ok(())
        };
        let ev_fan = if config.parallel_ev {
            par::fan_out(config.workers)
        } else {
            1
        };
        par::try_map(jobs.len(), ev_fan, |k| ev_one(&jobs[k]))?;
        drop(span_ev);

        // ---- UV: bit probes + intra-block duplicate detection ----------
        // Sequential by design: duplicate detection must see spends in job
        // order for the first-duplicate error to be deterministic, and a
        // bit probe is orders of magnitude cheaper than a branch fold.
        let span_uv = span!("ebv.uv", &mut breakdown.uv);
        let mut spends: Vec<(u32, u32)> = Vec::with_capacity(jobs.len());
        {
            let mut seen = std::collections::HashSet::with_capacity(jobs.len());
            for job in &jobs {
                let coord = (job.proof.height, job.proof.absolute_position());
                self.bitvecs
                    .check_unspent(coord.0, coord.1)
                    .map_err(|err| EbvError::UvFailed {
                        tx: job.tx,
                        input: job.input,
                        err,
                    })?;
                if !seen.insert(coord) {
                    return Err(EbvError::DuplicateSpend {
                        height: coord.0,
                        position: coord.1,
                    });
                }
                spends.push(coord);
            }
        }
        drop(span_uv);

        // ---- value conservation + sighash midstates (part of "others") --
        // One pass per transaction: sum input/output values and serialize
        // the sighash prefix every input of that transaction shares. The
        // midstate is what lets SV below avoid re-serializing the outputs
        // (O(outputs) work) once per input.
        let span_val = span!("ebv.value_midstate", &mut breakdown.others);
        let sv_fan = if config.parallel_sv {
            par::fan_out(config.workers)
        } else {
            1
        };
        let tx_one = |i: usize| -> Result<(SpendSighashMidstate, u64), EbvError> {
            let tx = &block.transactions[i];
            let in_value: u64 = tx
                .bodies
                .iter()
                .map(|b| {
                    b.proof
                        .as_ref()
                        .expect("checked")
                        .spent_output()
                        .expect("checked")
                        .value
                })
                .fold(0u64, u64::saturating_add);
            let out_value = tx.tidy.total_output_value();
            if in_value < out_value {
                return Err(EbvError::ValueImbalance { tx: i });
            }
            let coords = tx.spent_coords().expect("non-coinbase");
            let midstate = SpendSighashMidstate::new(
                tx.tidy.version,
                &coords,
                &tx.tidy.outputs,
                tx.tidy.lock_time,
            );
            Ok((midstate, in_value - out_value))
        };
        let per_tx = par::try_map(block.transactions.len() - 1, sv_fan, |k| tx_one(k + 1))?;
        let total_fees = per_tx
            .iter()
            .fold(0u64, |acc, (_, fee)| acc.saturating_add(*fee));
        let coinbase_out = block.transactions[0].tidy.total_output_value();
        if coinbase_out > BLOCK_SUBSIDY.saturating_add(total_fees) {
            return Err(EbvError::ExcessiveCoinbase);
        }
        drop(span_val);

        // ---- SV: scripts, parallel across inputs ------------------------
        let span_sv = span!("ebv.sv", &mut breakdown.sv);
        // Inputs signed by the same key — in this block or any earlier one
        // — share a single parse + odd-multiples table across SV workers.
        let pubkey_cache = &self.pubkey_cache;
        let sv_one = |job: &InputJob<'_>| -> Result<(), EbvError> {
            let _input_span = span!("ebv.sv_input");
            // Spending transactions start at index 1; midstates are stored
            // densely from 0.
            let digest = per_tx[job.tx - 1].0.input_digest(job.input as u32);
            let lock = &job.proof.spent_output().expect("checked").locking_script;
            let lock_time = block.transactions[job.tx].tidy.lock_time;
            verify_spend(
                job.us,
                lock,
                &DigestChecker::with_context(digest, lock_time, pubkey_cache),
            )
            .map_err(|err| EbvError::SvFailed {
                tx: job.tx,
                input: job.input,
                err,
            })
        };
        // Batched path: settle a chunk's ECDSA through one batch equation
        // and report the chunk's first failure.
        let sv_chunk = |chunk: &[InputJob<'_>]| -> Result<(), EbvError> {
            let sv_jobs: Vec<SvJob<'_>> = chunk
                .iter()
                .map(|job| SvJob {
                    digest: per_tx[job.tx - 1].0.input_digest(job.input as u32),
                    lock_time: block.transactions[job.tx].tidy.lock_time,
                    unlocking: job.us,
                    locking: &job.proof.spent_output().expect("checked").locking_script,
                })
                .collect();
            sv_chunk_batched(&sv_jobs, pubkey_cache)
                .into_iter()
                .zip(chunk)
                .try_for_each(|(result, job)| {
                    result.map_err(|err| EbvError::SvFailed {
                        tx: job.tx,
                        input: job.input,
                        err,
                    })
                })
        };
        if config.batch_verify {
            // Chunks partition the `(tx, input)`-ordered job list, so the
            // lowest failing chunk holds the minimum failing coordinate —
            // the error the strict sequential path reports.
            let size = sv_chunk_len(jobs.len(), sv_fan);
            let chunks: Vec<&[InputJob<'_>]> = jobs.chunks(size).collect();
            par::try_map(chunks.len(), sv_fan, |c| sv_chunk(chunks[c]))?;
        } else {
            par::try_map(jobs.len(), sv_fan, |k| sv_one(&jobs[k]))?;
        }
        drop(span_sv);

        // ---- commit: store header, new vector, apply spends -------------
        let span_commit = span!("ebv.commit", &mut breakdown.commit);
        self.headers.push(block.header);
        let outputs = block.output_count();
        self.bitvecs.insert_block(new_height, outputs);
        let mut undo = BlockUndo {
            spends: Vec::with_capacity(spends.len()),
            deleted_vectors: Vec::new(),
            outputs,
        };
        for (height, position) in spends {
            // UV probed each coordinate unspent and rejected duplicates, so
            // a failure here means the bit-vector set itself is corrupt.
            let deleted = self.bitvecs.spend(height, position).map_err(|_| {
                EbvError::Internal("commit: spend failed for a coordinate UV probed unspent")
            })?;
            undo.spends.push((height, position));
            if let Some(len) = deleted {
                undo.deleted_vectors.push((height, len));
            }
        }
        self.undo_stack.push(undo);
        drop(span_commit);

        counter!("ebv.blocks_connected").inc();
        histogram!("ebv.block_total").record(breakdown.total().as_nanos() as u64);
        if ebv_telemetry::enabled() {
            // `memory()` walks every vector; only refresh the gauges when
            // someone is collecting them.
            let size = self.bitvecs.memory();
            gauge!("ebv.bitvec.resident_bytes").set(size.optimized);
            gauge!("ebv.bitvec.vectors").set(size.vectors);
            gauge!("ebv.bitvec.sparse_vectors").set(size.sparse_vectors);
            gauge!("ebv.bitvec.dense_vectors").set(size.dense_vectors);
            trace_event!(
                "ebv.block_connected",
                height = new_height,
                txs = block.transactions.len(),
                unspent = self.bitvecs.total_unspent(),
            );
        }

        self.cumulative += breakdown;
        Ok(breakdown)
    }

    /// Disconnect the tip block, restoring the previous state (the reorg
    /// primitive, driven by `sync::reorg`). Returns the new tip height,
    /// `Ok(None)` if the tip is already the boot height (genesis, or the
    /// checkpoint for a snapshot-booted node), or a typed error if
    /// the undo data does not mirror the applied spends (corrupt state —
    /// formerly a panic).
    pub fn disconnect_tip(&mut self) -> Result<Option<u32>, EbvError> {
        let Some(undo) = self.undo_stack.pop() else {
            return Ok(None);
        };
        let tip_height = self.tip_height();
        self.headers.pop();
        // The tip's own vector always exists: no later block can have
        // spent from it, and it has at least the coinbase output.
        debug_assert_eq!(
            self.bitvecs.vector(tip_height).map(|v| v.len()),
            Some(undo.outputs),
            "tip vector must be intact at disconnect"
        );
        self.bitvecs.remove_block(tip_height);
        // Restore fully-spent vectors this block deleted, then re-set all
        // of its spends (reverse order for symmetry; operations commute).
        for &(height, len) in &undo.deleted_vectors {
            self.bitvecs.insert_all_spent(height, len);
        }
        for &(height, position) in undo.spends.iter().rev() {
            self.bitvecs.unspend(height, position).map_err(|_| {
                EbvError::Internal("disconnect: undo data does not mirror applied spends")
            })?;
        }
        counter!("ebv.blocks_disconnected").inc();
        trace_event!("ebv.block_disconnected", height = tip_height);
        Ok(Some(self.tip_height()))
    }

    /// Cheap internal-consistency check, asserted by the reorg engine
    /// after every unwind step: the undo stack must pair one record per
    /// non-genesis block, and every bit vector must sit at a height the
    /// header chain covers.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.headers.is_empty() {
            return Err("header chain is empty (genesis missing)".to_string());
        }
        let tip = self.tip_height();
        if tip < self.base_height {
            return Err(format!(
                "tip {tip} fell below the boot height {}",
                self.base_height
            ));
        }
        if self.undo_stack.len() as u32 != tip - self.base_height {
            return Err(format!(
                "undo stack holds {} records but {} blocks sit above the boot height",
                self.undo_stack.len(),
                tip - self.base_height
            ));
        }
        if let Some(bad) = self.bitvecs.heights().find(|&h| h > tip) {
            return Err(format!(
                "bit vector exists at height {bad} above the tip {tip}"
            ));
        }
        // The tip's own vector must exist: nothing above it could have
        // spent it empty.
        if self.bitvecs.vector(tip).is_none() {
            return Err(format!("tip vector missing at height {tip}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{ebv_coinbase, pack_ebv_block};
    use crate::proofs::ProofArchive;
    use crate::tidy::InputBody;
    use ebv_chain::transaction::{spend_sighash, TxOut};
    use ebv_primitives::ec::PrivateKey;
    use ebv_script::standard::{p2pkh_lock, p2pkh_unlock};

    /// Build a 2-block chain: genesis pays the miner, block 1 spends the
    /// genesis coinbase output. Returns (node pre-block-1, block 1).
    fn two_block_fixture() -> (EbvNode, EbvBlock, ProofArchive) {
        let sk = PrivateKey::from_seed(100);
        let pk = sk.public_key();
        let genesis_cb = ebv_coinbase(0, p2pkh_lock(&pk.address_hash()));
        let genesis = pack_ebv_block(Hash256::ZERO, vec![genesis_cb], 0, 0);
        let mut archive = ProofArchive::new();
        archive.add_block(0, &genesis);

        let node = EbvNode::new(&genesis, EbvConfig::default());

        // Spend genesis coinbase output (height 0, abs position 0).
        let proof = archive.make_proof(0, 0).expect("genesis output exists");
        let recipient = PrivateKey::from_seed(101).public_key();
        let outputs = vec![TxOut::new(
            BLOCK_SUBSIDY - 1000,
            p2pkh_lock(&recipient.address_hash()),
        )];
        let digest = spend_sighash(1, &[(0, 0)], &outputs, 0, 0);
        let us = p2pkh_unlock(
            &crate::sighash::sign_input(&sk, &digest),
            &pk.to_compressed(),
        );
        let spend = EbvTransaction::from_parts(
            1,
            vec![InputBody {
                us,
                proof: Some(proof),
            }],
            outputs,
            0,
        );
        let cb1 = ebv_coinbase(1, p2pkh_lock(&pk.address_hash()));
        let block1 = pack_ebv_block(genesis.header.hash(), vec![cb1, spend], 1, 0);
        (node, block1, archive)
    }

    #[test]
    fn valid_block_accepted_and_state_updated() {
        let (mut node, block1, _) = two_block_fixture();
        let breakdown = node.process_block(&block1).expect("valid block");
        assert!(breakdown.total() > std::time::Duration::ZERO);
        assert_eq!(node.tip_height(), 1);
        // Genesis had 1 output, now spent → its vector is gone; block 1 has
        // 2 outputs (coinbase + spend change).
        assert_eq!(node.bitvecs().len(), 1);
        assert_eq!(node.total_unspent(), 2);
    }

    #[test]
    fn rejects_double_spend_across_blocks() {
        let (mut node, block1, archive) = two_block_fixture();
        node.process_block(&block1).unwrap();

        // A second spend of the same genesis output.
        let sk = PrivateKey::from_seed(100);
        let proof = archive.make_proof(0, 0).unwrap();
        let outputs = vec![TxOut::new(1000, Script::new())];
        let digest = spend_sighash(1, &[(0, 0)], &outputs, 0, 0);
        let us = p2pkh_unlock(
            &crate::sighash::sign_input(&sk, &digest),
            &sk.public_key().to_compressed(),
        );
        let double = EbvTransaction::from_parts(
            1,
            vec![InputBody {
                us,
                proof: Some(proof),
            }],
            outputs,
            0,
        );
        let cb2 = ebv_coinbase(2, Script::new());
        let block2 = pack_ebv_block(block1.header.hash(), vec![cb2, double], 2, 0);
        match node.process_block(&block2) {
            Err(EbvError::UvFailed {
                err: UvError::UnknownHeight(0),
                ..
            }) => {}
            other => panic!("expected UV failure, got {other:?}"),
        }
    }

    #[test]
    fn rejects_duplicate_spend_within_block() {
        let (mut node, block1, archive) = two_block_fixture();
        // Two copies of the same spending tx in one block (distinct outputs
        // so the txs differ, same spent coordinate).
        let sk = PrivateKey::from_seed(100);
        let mk_spend = |amount: u64| {
            let proof = archive.make_proof(0, 0).unwrap();
            let outputs = vec![TxOut::new(amount, Script::new())];
            let digest = spend_sighash(1, &[(0, 0)], &outputs, 0, 0);
            let us = p2pkh_unlock(
                &crate::sighash::sign_input(&sk, &digest),
                &sk.public_key().to_compressed(),
            );
            EbvTransaction::from_parts(
                1,
                vec![InputBody {
                    us,
                    proof: Some(proof),
                }],
                outputs,
                0,
            )
        };
        let cb1 = ebv_coinbase(1, Script::new());
        let block = pack_ebv_block(
            block1.header.prev_block_hash,
            vec![cb1, mk_spend(100), mk_spend(200)],
            1,
            0,
        );
        match node.process_block(&block) {
            Err(EbvError::DuplicateSpend {
                height: 0,
                position: 0,
            }) => {}
            other => panic!("expected duplicate-spend rejection, got {other:?}"),
        }
    }

    #[test]
    fn rejects_fake_stake_position() {
        let (mut node, mut block1, _) = two_block_fixture();
        // Tamper with the spend tx's stake position (as a lying miner
        // would); Merkle root is recomputed so only the stake check fires.
        block1.transactions[1].tidy.stake_position += 1;
        block1.header.merkle_root = block1.compute_merkle_root();
        // Re-mine not needed at bits=0.
        match node.process_block(&block1) {
            Err(EbvError::StakeMismatch { tx: 1, .. }) => {}
            other => panic!("expected stake mismatch, got {other:?}"),
        }
    }

    #[test]
    fn rejects_forged_els() {
        let (mut node, mut block1, _) = two_block_fixture();
        // Inflate the spent output's value inside ELs: EV must catch the
        // forged leaf.
        {
            let body = &mut block1.transactions[1].bodies[0];
            let proof = body.proof.as_mut().unwrap();
            proof.els.outputs[0].value *= 2;
        }
        // Re-link body hashes + merkle so only EV can catch it.
        let bodies = block1.transactions[1].bodies.clone();
        block1.transactions[1].tidy.input_hashes = bodies.iter().map(InputBody::hash).collect();
        block1.header.merkle_root = block1.compute_merkle_root();
        match node.process_block(&block1) {
            Err(EbvError::EvFailed { tx: 1, input: 0 }) => {}
            other => panic!("expected EV failure, got {other:?}"),
        }
    }

    #[test]
    fn rejects_future_height_reference() {
        let (mut node, mut block1, _) = two_block_fixture();
        {
            let body = &mut block1.transactions[1].bodies[0];
            body.proof.as_mut().unwrap().height = 999;
        }
        let bodies = block1.transactions[1].bodies.clone();
        block1.transactions[1].tidy.input_hashes = bodies.iter().map(InputBody::hash).collect();
        block1.header.merkle_root = block1.compute_merkle_root();
        match node.process_block(&block1) {
            Err(EbvError::BadHeight { height: 999, .. }) => {}
            other => panic!("expected bad-height rejection, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_signature() {
        let (mut node, mut block1, _) = two_block_fixture();
        // Replace the unlocking script with one signed by the wrong key.
        let wrong = PrivateKey::from_seed(999);
        let outputs = block1.transactions[1].tidy.outputs.clone();
        let digest = spend_sighash(1, &[(0, 0)], &outputs, 0, 0);
        block1.transactions[1].bodies[0].us = p2pkh_unlock(
            &crate::sighash::sign_input(&wrong, &digest),
            &wrong.public_key().to_compressed(),
        );
        let bodies = block1.transactions[1].bodies.clone();
        block1.transactions[1].tidy.input_hashes = bodies.iter().map(InputBody::hash).collect();
        block1.header.merkle_root = block1.compute_merkle_root();
        match node.process_block(&block1) {
            Err(EbvError::SvFailed {
                tx: 1, input: 0, ..
            }) => {}
            other => panic!("expected SV failure, got {other:?}"),
        }
    }

    #[test]
    fn rejects_value_inflation() {
        let (mut node, mut block1, _) = two_block_fixture();
        // Outputs exceed the spent input's value.
        block1.transactions[1].tidy.outputs[0].value = BLOCK_SUBSIDY * 2;
        block1.header.merkle_root = block1.compute_merkle_root();
        // Signature is now stale too, but value check runs before SV.
        match node.process_block(&block1) {
            Err(EbvError::ValueImbalance { tx: 1 }) => {}
            other => panic!("expected value imbalance, got {other:?}"),
        }
    }

    #[test]
    fn rejects_wrong_prev_hash_and_merkle() {
        let (mut node, block1, _) = two_block_fixture();
        let mut wrong_prev = block1.clone();
        wrong_prev.header.prev_block_hash = Hash256::ZERO;
        assert_eq!(node.process_block(&wrong_prev), Err(EbvError::NotOnTip));

        let mut wrong_merkle = block1.clone();
        wrong_merkle.header.merkle_root = Hash256::ZERO;
        assert_eq!(
            node.process_block(&wrong_merkle),
            Err(EbvError::MerkleMismatch)
        );
    }

    #[test]
    fn rejects_same_block_height_reference() {
        // A proof claiming the spent output was created *in this very
        // block* (height == new tip height) must be rejected: the header
        // chain only holds blocks strictly below the one being validated.
        // Regression test for a removed redundant `height >= new_height`
        // guard — `header_at` alone must catch this.
        let (mut node, mut block1, _) = two_block_fixture();
        {
            let body = &mut block1.transactions[1].bodies[0];
            body.proof.as_mut().unwrap().height = 1; // block1's own height
        }
        let bodies = block1.transactions[1].bodies.clone();
        block1.transactions[1].tidy.input_hashes = bodies.iter().map(InputBody::hash).collect();
        block1.header.merkle_root = block1.compute_merkle_root();
        match node.process_block(&block1) {
            Err(EbvError::BadHeight {
                tx: 1,
                input: 0,
                height: 1,
            }) => {}
            other => panic!("expected same-block height rejection, got {other:?}"),
        }
    }

    #[test]
    fn sequential_sv_matches_parallel() {
        let (_, block1, _) = two_block_fixture();
        let sk = PrivateKey::from_seed(100);
        let pk = sk.public_key();
        let genesis_cb = ebv_coinbase(0, p2pkh_lock(&pk.address_hash()));
        let genesis = pack_ebv_block(Hash256::ZERO, vec![genesis_cb], 0, 0);
        let mut seq_node = EbvNode::new(&genesis, EbvConfig::sequential());
        seq_node
            .process_block(&block1)
            .expect("sequential pipeline accepts the same block");
        assert_eq!(seq_node.tip_height(), 1);
    }

    #[test]
    fn worker_override_accepts_block() {
        let (_, block1, _) = two_block_fixture();
        let sk = PrivateKey::from_seed(100);
        let pk = sk.public_key();
        let genesis_cb = ebv_coinbase(0, p2pkh_lock(&pk.address_hash()));
        let genesis = pack_ebv_block(Hash256::ZERO, vec![genesis_cb], 0, 0);
        let config = EbvConfig {
            workers: Some(2),
            ..EbvConfig::default()
        };
        let mut node = EbvNode::new(&genesis, config);
        node.process_block(&block1)
            .expect("worker override accepts the same block");
        assert_eq!(node.tip_height(), 1);
        let breakdown = node.cumulative_breakdown();
        assert!(breakdown.commit > std::time::Duration::ZERO);
    }

    #[test]
    fn snapshot_boot_matches_genesis_boot() {
        let (mut node, block1, _) = two_block_fixture();
        node.process_block(&block1).expect("valid block");

        // Boot a second node from the first node's snapshot.
        let snap = node.snapshot();
        let headers = vec![*node.header_at(0).unwrap(), *node.header_at(1).unwrap()];
        let booted = EbvNode::from_snapshot(&snap, headers, EbvConfig::default())
            .expect("snapshot boot succeeds");
        assert_eq!(booted.tip_height(), 1);
        assert_eq!(booted.tip_hash(), node.tip_hash());
        assert_eq!(booted.base_height(), 1);
        assert_eq!(booted.total_unspent(), node.total_unspent());
        assert_eq!(booted.state_digest(), node.state_digest());
        booted.check_invariants().expect("invariants hold at boot");
        // Nothing above the boot height has been connected yet, so there
        // is nothing to disconnect.
        let mut booted = booted;
        assert_eq!(booted.disconnect_tip(), Ok(None));
    }

    #[test]
    fn snapshot_boot_rejects_bad_headers() {
        let (mut node, block1, _) = two_block_fixture();
        node.process_block(&block1).expect("valid block");
        let snap = node.snapshot();
        let h0 = *node.header_at(0).unwrap();
        let h1 = *node.header_at(1).unwrap();

        // Too few headers.
        assert_eq!(
            EbvNode::from_snapshot(&snap, vec![h0], EbvConfig::default()),
            Err(SnapshotError::HeaderCount {
                expected: 2,
                got: 1
            })
        );
        // Broken linkage.
        let mut unlinked = h1;
        unlinked.prev_block_hash = Hash256::ZERO;
        assert_eq!(
            EbvNode::from_snapshot(&snap, vec![h0, unlinked], EbvConfig::default()),
            Err(SnapshotError::BrokenHeaderLink { height: 1 })
        );
        // Right chain, wrong snapshot tip: mutate the tip header's nonce so
        // linkage still holds but the tip hash differs.
        let mut wrong_tip = h1;
        wrong_tip.nonce ^= 1;
        assert_eq!(
            EbvNode::from_snapshot(&snap, vec![h0, wrong_tip], EbvConfig::default()),
            Err(SnapshotError::TipHashMismatch)
        );
    }

    impl PartialEq for EbvNode {
        fn eq(&self, other: &EbvNode) -> bool {
            self.tip_hash() == other.tip_hash() && self.state_digest() == other.state_digest()
        }
    }

    impl std::fmt::Debug for EbvNode {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("EbvNode")
                .field("tip_height", &self.tip_height())
                .field("tip_hash", &self.tip_hash())
                .finish()
        }
    }
}
