//! Wire-shippable snapshot deltas — the payload of the replication log.
//!
//! [`Snapshot::apply_delta`](crate::Snapshot::apply_delta) refreshes a
//! co-located snapshot from the live analyzer and reports only *metadata*
//! about what changed. A standby replica on the far side of a TCP
//! connection needs the changed *data*: the journaled variant
//! ([`Snapshot::apply_delta_journaled`](crate::Snapshot::apply_delta_journaled))
//! additionally captures every pointer patch and every changed record shard
//! as a [`DeltaRecord`] — a self-contained, byte-stable description that,
//! applied via [`Snapshot::apply_record`](crate::Snapshot::apply_record)
//! to a snapshot at the same baseline, reproduces the owner's state
//! bit-for-bit (`==`). Retention sweeps need no special casing: a sweep
//! mutates live components, so its reclamation rides the next delta as
//! pointer-archive retirement and the record shards that lost records.
//!
//! A record holds what changed **by `Arc`**: the pointer patches and the
//! changed record shards are the very allocations the owner's snapshot
//! now holds, so journaling, slicing and (on the far side, where decode
//! produced the `Arc`s) applying never copy a flow record or a slot.
//!
//! The owner publishes one sliced record per directory shard
//! ([`DeltaRecord::slice_for`]): pointer patches are the cheap replicated
//! layer every shard carries (the paper's MPHF-plus-pointer-bits
//! argument), while each host patch travels only to the shard that owns
//! the host. Records are stamped with a per-shard sequence number at the
//! transport layer (`wireplane`'s `Frame::DeltaAppend`); this module owns
//! the payload codec — a [`DeltaRecord`] is an ordinary [`Wire`] value, as
//! is every type inside it — which never panics on malformed input.

use std::collections::BTreeSet;
use std::sync::Arc;

use netsim::packet::NodeId;
use switchpointer::host::TriggerEvent;
use switchpointer::hoststore::RecordShard;
use switchpointer::pointer::PointerPatch;
use telemetry::frame::{Dec, Enc, Wire, WireError};

/// One switch's pointer advance: the patch to apply to the replica's
/// hierarchy. The post-apply baseline is derived on the replica from the
/// patched hierarchy itself (`(version, archive_logical_len)`), so it
/// does not travel. Every shard's slice shares the one patch.
#[derive(Debug, Clone)]
pub struct SwitchPatch {
    pub switch: NodeId,
    pub patch: Arc<PointerPatch>,
}

/// How one host's frozen store advanced since the baseline.
#[derive(Debug, Clone)]
pub enum HostPatchKind {
    /// Only the trigger log moved (a raise or a retention trim).
    TriggersOnly { triggers: Vec<TriggerEvent> },
    /// The listed record shards changed (an ingest or an eviction wrote
    /// them); everything else is untouched. A shard travels as its record
    /// vector in ascending flow-id order, so decoding it reproduces the
    /// secondary index bit-for-bit.
    Shards {
        /// `(shard index, the changed shard)` — on the owner the `Arc` its
        /// snapshot holds, on a replica the one decode produced.
        dirty: Vec<(u64, Arc<RecordShard>)>,
        triggers: Vec<TriggerEvent>,
        /// The live store's record count after the advance.
        total: u64,
    },
}

/// One host's advance plus its new freeze baseline `(store version,
/// trigger version)` — replicas cannot derive these (the counters live in
/// the owner's live components), so they travel.
#[derive(Debug, Clone)]
pub struct HostPatch {
    pub host: NodeId,
    pub new_base: (u64, u64),
    pub kind: HostPatchKind,
}

/// Everything one [`crate::Snapshot::apply_delta_journaled`] advance changed, as
/// shippable data. Applying it to a snapshot at the same baseline (via
/// [`crate::Snapshot::apply_record`]) reproduces the owner's post-advance state.
#[derive(Debug, Clone, Default)]
pub struct DeltaRecord {
    /// The owner's epoch horizon after the advance.
    pub epoch_horizon: u64,
    pub switches: Vec<SwitchPatch>,
    pub hosts: Vec<HostPatch>,
}

impl DeltaRecord {
    /// Did the advance change anything?
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty() && self.hosts.is_empty()
    }

    /// The slice of this record one directory shard consumes: all switch
    /// patches (the replicated pointer layer), host patches restricted to
    /// `keep` — the host set the shard's view was sliced with at capture.
    /// Refcount bumps plus the kept hosts' trigger logs; no record or
    /// slot is copied.
    pub fn slice_for(&self, keep: &BTreeSet<NodeId>) -> DeltaRecord {
        DeltaRecord {
            epoch_horizon: self.epoch_horizon,
            switches: self.switches.clone(),
            hosts: self
                .hosts
                .iter()
                .filter(|p| keep.contains(&p.host))
                .cloned()
                .collect(),
        }
    }
}

// ---- wire codec ------------------------------------------------------------
//
// One `Wire` impl per type, built from the impls of its fields. Structural
// validity against a particular snapshot is checked at apply time, not here.

impl Wire for SwitchPatch {
    fn enc(&self, e: &mut Enc) {
        self.switch.enc(e);
        self.patch.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(SwitchPatch {
            switch: NodeId::dec(d)?,
            patch: Arc::dec(d)?,
        })
    }
}

impl Wire for HostPatch {
    fn enc(&self, e: &mut Enc) {
        self.host.enc(e);
        self.new_base.enc(e);
        match &self.kind {
            HostPatchKind::TriggersOnly { triggers } => {
                e.put_u8(0);
                triggers.enc(e);
            }
            HostPatchKind::Shards {
                dirty,
                triggers,
                total,
            } => {
                e.put_u8(1);
                dirty.enc(e);
                triggers.enc(e);
                e.put_u64(*total);
            }
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(HostPatch {
            host: NodeId::dec(d)?,
            new_base: <(u64, u64)>::dec(d)?,
            kind: match d.get_u8()? {
                0 => HostPatchKind::TriggersOnly {
                    triggers: Vec::dec(d)?,
                },
                1 => HostPatchKind::Shards {
                    dirty: Vec::dec(d)?,
                    triggers: Vec::dec(d)?,
                    total: d.get_u64()?,
                },
                t => return Err(WireError::BadTag(t)),
            },
        })
    }
}

impl Wire for DeltaRecord {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(self.epoch_horizon);
        self.switches.enc(e);
        self.hosts.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(DeltaRecord {
            epoch_horizon: d.get_u64()?,
            switches: Vec::dec(d)?,
            hosts: Vec::dec(d)?,
        })
    }
}
