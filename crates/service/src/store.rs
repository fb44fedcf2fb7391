//! The content-addressed warm-artifact store.
//!
//! At micro-blog scale the same crowd backs many logical pools —
//! per-tenant, per-topic and per-region registries over one juror
//! population — so a [`JuryService`](crate::JuryService) would otherwise
//! re-derive identical sorted runs, pmf ladders, budget staircase and
//! AltrM answer once *per pool*. [`ArtifactStore`] interns those
//! artifacts by **content**: every registered pool keeps a running
//! [`PoolFingerprint`](jury_core::fingerprint::PoolFingerprint) (a
//! commutative multiset hash of its jurors' solver-relevant content,
//! updated in `O(1)` per mutation), and warm artifacts live in
//! [`ArtifactSet`]s keyed by `(fingerprint, shard count, solver config)`
//! so N equal pools hold N `Arc` clones of **one** artifact set, built
//! once.
//!
//! ## Verification
//!
//! The fingerprint only *addresses* an entry; a candidate pool is
//! admitted by content comparison (hash collisions can cost a missed
//! share, never a wrong answer): its juror content must equal the
//! entry's founding sequence position for position
//! ([`ArtifactSet::matches`]). Everything is then shared outright — the
//! per-shard runs and ladders (partition-verified), the merged orders,
//! the profile, the Arc'd AltrM answer and the (lock-guarded, lazily
//! growing) budget staircase. A pool holding the same jurors in another
//! arrangement has a different sequence: it builds privately, and never
//! replaces the incumbent entry ([`ArtifactStore::publish`]).
//!
//! ## Copy-on-write detach, re-join, eviction
//!
//! Mutations never write through a shared entry: the owning pool
//! *detaches* first — drops its link and releases the entry, which is
//! evicted if no other pool holds it — and the in-place repairs then
//! write through `Arc::make_mut`, so a sole holder repairs zero-copy and
//! a pool with siblings clones exactly the runs it touches. The
//! fingerprint is updated by one commutative-hash subtraction/addition
//! (no rescan); if the post-mutation multiset already has an entry the
//! pool **re-joins** it, otherwise (when it detached from an entry with
//! surviving siblings) the repaired artifacts are published under the
//! new key for the siblings to follow. Entries no pool holds any more
//! are evicted ([`ArtifactStore::evict_if_orphaned`]).

use crate::shard::{CacheCopies, ShardLayer, ShardedPool, SharedOrder};
use crate::AltrAnswer;
use jury_core::altr::JerProfile;
use jury_core::fingerprint::{juror_content, FingerprintKey};
use jury_core::juror::Juror;
use jury_core::paym::Staircase;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// The interning key of one artifact set: content fingerprint, shard
/// count (per-shard runs are a property of the partition) and the
/// solver-relevant configuration bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct StoreKey {
    pub fp: FingerprintKey,
    pub shards: usize,
    pub config: u64,
}

/// One pool-content snapshot's warm artifacts, shared by every pool
/// whose jurors match. Runs and orders are immutable once published; the
/// lazily-derived artifacts fill exactly once ([`OnceLock`]) and the
/// budget staircase grows monotonically behind a read-mostly lock (batch
/// workers replay steps read-only; recording happens under the service's
/// `&mut self`).
#[derive(Debug)]
pub(crate) struct ArtifactSet {
    /// Founding `(ε bits, cost bits)` per pool position — the content
    /// identity candidates are verified against.
    seq: Vec<(u64, u64)>,
    /// The per-shard layer: partition plus every shard's runs and ladder.
    /// Adoption is partition-verified: a pool whose owner vector differs
    /// (equal content, different mutation history) builds its shards
    /// privately.
    pub layer: ShardLayer,
    /// The K-way-merged ε and greedy orders; `None` for one shard, whose
    /// runs are the global orders.
    pub merged: Option<(SharedOrder, SharedOrder)>,
    /// The solved AltrM answer.
    pub altr: OnceLock<AltrAnswer>,
    /// The odd-size JER profile.
    pub profile: OnceLock<Arc<JerProfile>>,
    /// The PayM budget staircase over the greedy order, recorded lazily
    /// per budget.
    pub staircase: RwLock<Staircase>,
    /// Monotone mutation counter: bumped whenever a lazy slot fills, a
    /// ladder is laid or the staircase takes a write lock. The
    /// incremental snapshot writer compares it against the version it
    /// last persisted to decide cleanness without re-encoding;
    /// over-counting (a bump that changed nothing) is harmless — the
    /// writer's encode-and-compare fallback still detects byte-identical
    /// entries — but a *missed* bump would only cost warmth, never
    /// correctness (persisted artifacts are deterministic functions of
    /// pool content).
    version: AtomicU64,
}

impl ArtifactSet {
    /// Interns a warm pool's layer, merged orders and whatever lazy
    /// artifacts it already holds (shared handles, no copies). `None`
    /// while any shard is cold.
    pub(crate) fn from_pool(sp: &ShardedPool, jurors: &[Juror]) -> Option<Self> {
        Some(Self {
            seq: jurors.iter().map(juror_content).collect(),
            layer: sp.export_layer()?,
            merged: sp.merged_orders(),
            altr: once_from(sp.altr().cloned()),
            profile: once_from(sp.profile().cloned()),
            staircase: RwLock::new(Staircase::new()),
            version: AtomicU64::new(0),
        })
    }

    /// Reassembles an entry from verified snapshot parts. Content/shape
    /// validation (the permutation and binding checks) is the snapshot
    /// loader's job; this only rebuilds the struct.
    pub(crate) fn from_restored(
        seq: Vec<(u64, u64)>,
        layer: ShardLayer,
        merged: Option<(SharedOrder, SharedOrder)>,
        altr: Option<AltrAnswer>,
        profile: Option<Arc<JerProfile>>,
        staircase: Staircase,
    ) -> Self {
        Self {
            seq,
            layer,
            merged,
            altr: once_from(altr),
            profile: once_from(profile),
            staircase: RwLock::new(staircase),
            version: AtomicU64::new(0),
        }
    }

    /// The founding `(ε bits, cost bits)` sequence — the content identity
    /// the snapshot codec persists and restore re-verifies.
    pub(crate) fn seq(&self) -> &[(u64, u64)] {
        &self.seq
    }

    /// Whether `jurors` equals the founding sequence position for
    /// position — the only way a pool attaches (a fingerprint collision
    /// or a rearrangement of equal content only costs the share).
    pub(crate) fn matches(&self, jurors: &[Juror]) -> bool {
        jurors.len() == self.seq.len()
            && jurors.iter().zip(&self.seq).all(|(j, &fc)| juror_content(j) == fc)
    }

    /// A copy for an independent store (see [`ArtifactStore::deep_clone`]):
    /// the immutable innards still share memory through their inner
    /// `Arc`s, while the lazy cells — the AltrM and profile slots, the
    /// staircase and every shard cache whose ladder is not laid yet —
    /// snapshot their current state into fresh containers.
    fn snapshot(&self, copies: &mut CacheCopies) -> Self {
        let mut layer = self.layer.clone();
        layer.copy_unlaid(copies);
        Self {
            seq: self.seq.clone(),
            layer,
            merged: self.merged.clone(),
            altr: once_from(self.altr.get().cloned()),
            profile: once_from(self.profile.get().cloned()),
            staircase: RwLock::new(self.staircase_read().clone()),
            version: AtomicU64::new(self.version.load(Ordering::Acquire)),
        }
    }

    /// Read access to the (possibly poisoned — recover, steps are
    /// append-only) staircase.
    pub(crate) fn staircase_read(&self) -> std::sync::RwLockReadGuard<'_, Staircase> {
        self.staircase.read().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Write access for recording a step. Conservatively counts as a
    /// mutation (see [`ArtifactSet::note_mutation`]) — a write lock
    /// that records nothing is caught by the snapshot writer's
    /// encode-and-compare fallback.
    pub(crate) fn staircase_write(&self) -> std::sync::RwLockWriteGuard<'_, Staircase> {
        self.note_mutation();
        self.staircase.write().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The current mutation version (see the `version` field).
    pub(crate) fn mutation_version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Marks this entry dirty for the next incremental snapshot.
    pub(crate) fn note_mutation(&self) {
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    /// Fills the AltrM answer slot (first writer wins) and marks the
    /// entry dirty when it actually filled.
    pub(crate) fn set_altr(&self, answer: AltrAnswer) {
        if self.altr.set(answer).is_ok() {
            self.note_mutation();
        }
    }

    /// Fills the JER-profile slot, dirty-tracked.
    pub(crate) fn set_profile(&self, profile: Arc<JerProfile>) {
        if self.profile.set(profile).is_ok() {
            self.note_mutation();
        }
    }
}

/// A `OnceLock` pre-filled from an optional value.
fn once_from<T>(value: Option<T>) -> OnceLock<T> {
    let lock = OnceLock::new();
    if let Some(v) = value {
        let _ = lock.set(v);
    }
    lock
}

/// One pool's attachment to a store entry.
#[derive(Debug, Clone)]
pub(crate) struct StoreLink {
    pub key: StoreKey,
    pub set: Arc<ArtifactSet>,
}

/// The per-service interning map. Entries are kept alive by attached
/// pools' `Arc`s; [`ArtifactStore::evict_if_orphaned`] reaps entries
/// only the map still holds. Deliberately **not** `Clone`: a shared-map
/// copy would break the exact strong-count accounting the eviction
/// logic relies on — cloning services goes through
/// [`ArtifactStore::deep_clone`].
#[derive(Debug, Default)]
pub(crate) struct ArtifactStore {
    entries: HashMap<StoreKey, Arc<ArtifactSet>>,
    /// When each currently-orphaned entry lost its last holder — the TTL
    /// eviction policy's stamps ([`ArtifactStore::stamp_if_orphaned`]).
    /// Only populated when the policy is on; a stamp is invalidated (and
    /// removed by the next sweep) the moment a pool re-attaches.
    orphans: HashMap<StoreKey, Instant>,
}

impl ArtifactStore {
    /// An independent copy for a cloned service: every entry is
    /// re-wrapped in a fresh `Arc` (the immutable innards still share
    /// memory) so the clone's strong counts track only *its* pools.
    /// Unlaid shard caches are copied through `copies`, which the caller
    /// then applies to its pools too. Returns the new store plus the
    /// old-pointer → new-handle mapping the caller uses to re-link
    /// attached pools.
    pub(crate) fn deep_clone(
        &self,
        copies: &mut CacheCopies,
    ) -> (Self, HashMap<*const ArtifactSet, Arc<ArtifactSet>>) {
        let mut remap = HashMap::with_capacity(self.entries.len());
        let mut entries = HashMap::with_capacity(self.entries.len());
        for (key, arc) in &self.entries {
            let copy = Arc::new(arc.snapshot(copies));
            remap.insert(Arc::as_ptr(arc), copy.clone());
            entries.insert(*key, copy);
        }
        (Self { entries, orphans: self.orphans.clone() }, remap)
    }

    /// The entry at `key`, if interned.
    pub(crate) fn get(&self, key: &StoreKey) -> Option<Arc<ArtifactSet>> {
        self.entries.get(key).cloned()
    }

    /// Whether an entry lives at `key`.
    pub(crate) fn contains(&self, key: &StoreKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Interns `set` under `key` iff the key is vacant, returning the
    /// shared handle. An occupied key (same fingerprint but another
    /// arrangement of the content, or colliding content) keeps its
    /// incumbent — replacing it would strand the incumbent's attached
    /// pools and let alternating arrangements thrash the entry — and the
    /// builder stays private.
    pub(crate) fn publish(&mut self, key: StoreKey, set: ArtifactSet) -> Option<Arc<ArtifactSet>> {
        match self.entries.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => None,
            std::collections::hash_map::Entry::Vacant(slot) => {
                Some(slot.insert(Arc::new(set)).clone())
            }
        }
    }

    /// Removes the entry at `key` when no pool holds it any more (the
    /// map's own `Arc` is the only survivor). Called after detaches and
    /// pool removals; `Arc::strong_count` is exact here because the
    /// registry is `&mut` — no worker threads hold transient clones.
    pub(crate) fn evict_if_orphaned(&mut self, key: &StoreKey) {
        if self.entries.get(key).is_some_and(|arc| Arc::strong_count(arc) == 1) {
            self.entries.remove(key);
            self.orphans.remove(key);
        }
    }

    /// The TTL policy's replacement for [`ArtifactStore::evict_if_orphaned`]:
    /// an entry no pool holds is *stamped* with the current time instead
    /// of being removed, so returning content can re-join it warm until
    /// [`ArtifactStore::sweep_ttl`] reaps it.
    pub(crate) fn stamp_if_orphaned(&mut self, key: &StoreKey) {
        if self.entries.get(key).is_some_and(|arc| Arc::strong_count(arc) == 1) {
            self.orphans.entry(*key).or_insert_with(Instant::now);
        }
    }

    /// Routes to stamping (TTL policy) or immediate eviction (refcount
    /// policy) — every detach/removal call site picks by configuration.
    pub(crate) fn release(&mut self, key: &StoreKey, ttl_enabled: bool) {
        if ttl_enabled {
            self.stamp_if_orphaned(key);
        } else {
            self.evict_if_orphaned(key);
        }
    }

    /// Reaps entries that have been orphaned for at least `ttl`,
    /// returning how many were evicted. Stamps whose entry regained a
    /// holder since (a re-join or fresh attach) are dropped without
    /// eviction — the strong count is re-checked here, never trusted
    /// from stamp time.
    pub(crate) fn sweep_ttl(&mut self, ttl: Duration) -> usize {
        let mut evicted = 0usize;
        let entries = &mut self.entries;
        self.orphans.retain(|key, stamped| {
            let still_orphaned = entries.get(key).is_some_and(|arc| Arc::strong_count(arc) == 1);
            if !still_orphaned {
                return false; // re-attached (or already gone): unstamp.
            }
            if stamped.elapsed() >= ttl {
                entries.remove(key);
                evicted += 1;
                return false;
            }
            true
        });
        evicted
    }

    /// Number of interned entries (observability / tests).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Every interned entry, for the snapshot writer.
    pub(crate) fn iter_entries(&self) -> impl Iterator<Item = (&StoreKey, &Arc<ArtifactSet>)> {
        self.entries.iter()
    }
}
