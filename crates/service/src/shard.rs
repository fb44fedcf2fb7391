//! The warm-state layout every pool is served through: K shards, one
//! below [`ShardConfig::threshold`].
//!
//! [`ShardedPool`] partitions a pool's positions over K shards and
//! bounds the blast radius of a mutation to the **owning shard**:
//!
//! * each shard caches its own ε-sorted run, the ε values aligned with
//!   it, its greedy PayM run and — laid on the first
//!   [`jer_probe`](crate::JuryService::jer_probe) or profile read, never
//!   on a cold build — a ladder of prefix Poisson-binomial pmfs over its
//!   sorted rates ([`PmfLadder`]);
//! * the global ε order / greedy order are K-way merges of the per-shard
//!   runs ([`jury_core::merge`]) — comparisons only, no float
//!   re-evaluation, so the merged permutations equal one global sort
//!   exactly and the solvers' presorted entry points produce
//!   **bit-identical** selections. A one-shard pool has no merge at
//!   all: its single run *is* the global order, so it holds one copy of
//!   each order and one ε vector, and its cold build sorts the greedy
//!   run on a second thread while the caller sorts by ε and runs the
//!   AltrM scan over the ε run it just built ([`PARALLEL_BUILD_MIN`]);
//! * the merged greedy order carries the PayM budget [`Staircase`],
//!   answering warm PayM tasks by binary search instead of a greedy
//!   rescan;
//! * every mutation is *repaired in place*: an insert is one
//!   rank-insert per sorted run (shard and merged) plus, once the ladder
//!   exists, one [`PoiBin::push`] per affected checkpoint
//!   ([`PmfLadder::repair_insert`]); an update or remove is one remove +
//!   one rank-insert per run, a renumbering pass for removals, and a
//!   factor division per affected checkpoint
//!   ([`PmfLadder::repair_update`]) — no shard re-sort, no K-way
//!   re-merge and no pmf re-convolution. The AltrM answer and the
//!   staircase drop, since the selection they summarise may genuinely
//!   change. A one-shard pool's JER profile is repaired in place too
//!   (prefix entries reused, the suffix resumed from the ladder, whose
//!   run is the global one); a K-shard pool's profile drops;
//! * shards hollowed out by skewed churn are *re-balanced* online
//!   ([`ShardedPool::rebalance`]): members move from the largest shards
//!   into degenerate ones, each move repairing both shards' runs and
//!   ladders in place. Re-balancing permutes shard **membership** only —
//!   the merged global orders are a property of the pool, not the
//!   partition, so they are untouched and bit-identity is preserved by
//!   construction.
//!
//! ## What merges bit-identically, and what does not
//!
//! Sorted **orders** merge bit-identically because the comparators are
//! total orders with an index tie-break: a sorted permutation under such
//! an order is unique, so "merge of per-shard sorts" and "one global
//! sort" are the same permutation and every downstream float operation
//! (the AltrALG prefix scan, the PayALG pair trials) is performed in the
//! identical sequence. Prefix **pmfs** do *not*: convolving per-shard
//! distributions ([`PoiBin::merge_into`]) is mathematically the same
//! distribution but a different float evaluation order than sequential
//! [`PoiBin::push`]es over the global run. Selections therefore always
//! ride the merged orders (bit-identity is contractual, enforced by
//! `tests/sharded_differential.rs`), while the merged-pmf path powers
//! the [`jer_probe`](crate::JuryService::jer_probe) point query, whose
//! contract is numerical equality within convolution rounding. A probe
//! whose prefix lies in one shard — every probe of a one-shard pool —
//! reads that shard's ladder directly, with no merge.

use crate::ladder::PmfLadder;
use crate::{effective_threads, solve_altr_cached, AltrAnswer};
use jury_core::altr::{AltrConfig, JerProfile};
use jury_core::error::JuryError;
use jury_core::jer::JerEngine;
use jury_core::juror::Juror;
use jury_core::merge::kway_merge_by;
use jury_core::paym::{PayAlg, Staircase};
use jury_core::problem::Selection;
use jury_core::solver::{eps_cmp, visit_order, SolverScratch, VisitOrder};
use jury_numeric::conv::ConvScratch;
use jury_numeric::poibin::PoiBin;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A shared handle to one position-space visit order.
pub(crate) type SharedOrder = Arc<Vec<usize>>;

/// How a [`JuryService`](crate::JuryService) partitions its pools. Every
/// pool is served by the same sharded layout; below the threshold it
/// has one shard, whose runs are the pool's global orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Pools with at least this many jurors get [`ShardConfig::shards`]
    /// shards, smaller ones one (`usize::MAX`, the default, keeps every
    /// pool at one shard). A one-shard pool growing across the
    /// threshold through inserts is re-partitioned cold; pools
    /// shrinking below it keep their shards (hysteresis keeps warm
    /// state).
    pub threshold: usize,
    /// Number of shards K (clamped to ≥ 1) for pools at or above the
    /// threshold.
    pub shards: usize,
    /// A shard whose membership drops below this percentage of the mean
    /// shard size (pool size / K) is flagged *degenerate* — repeated
    /// removals have hollowed it out, so its run no longer amortises the
    /// per-shard bookkeeping. Each episode bumps
    /// [`ServiceStats::degenerate_shards`](crate::ServiceStats::degenerate_shards)
    /// once and (unless [`ShardConfig::rebalance`] is off) triggers an
    /// online re-balance that heals the shard in place.
    pub degenerate_percent: usize,
    /// Whether a degeneracy episode triggers online re-balancing
    /// (run by the registry after the mutation): members are stolen
    /// from the largest shards into the degenerate ones, repairing both
    /// sides' runs and ladders in place. Membership permutation only —
    /// the merged orders (and therefore every selection) are unchanged.
    /// `false` reverts to detection-only.
    pub rebalance: bool,
}

impl Default for ShardConfig {
    /// One shard per pool; 8 shards once a threshold is set; shards
    /// flagged degenerate below 25% of the mean shard size and
    /// re-balanced online.
    fn default() -> Self {
        Self { threshold: usize::MAX, shards: 8, degenerate_percent: 25, rebalance: true }
    }
}

impl ShardConfig {
    /// Whether a pool of `len` jurors gets [`ShardConfig::shards`]
    /// shards under this configuration (one shard otherwise).
    pub fn applies(&self, len: usize) -> bool {
        len >= self.threshold
    }

    /// The shard count a pool of `len` jurors is created with.
    pub(crate) fn shards_for(&self, len: usize) -> usize {
        if self.applies(len) {
            self.shards.max(1)
        } else {
            1
        }
    }
}

/// Everything derived from one shard's membership snapshot. Held behind
/// an `Arc` so equal pools can adopt one interned build via
/// [`ShardLayer`]; every in-place repair goes through `Arc::make_mut`,
/// which is the per-shard copy-on-write boundary (a sole owner repairs
/// in place, an attached pool clones the one shard it touches first).
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardCache {
    /// The shard's members sorted by the global ε order (ties by pool
    /// position) — one sorted run of the global ε order.
    eps_order: Vec<usize>,
    /// ε values aligned with `eps_order`.
    eps: Vec<f64>,
    /// The shard's members sorted by the global greedy order — one
    /// sorted run of the global PayALG frontier.
    greedy_order: Vec<usize>,
    /// Prefix-pmf checkpoints over `eps` (see [`crate::ladder`]), laid
    /// on first use through a shared handle — every pool holding this
    /// cache sees it — and repaired in place by mutations once laid.
    ladder: OnceLock<PmfLadder>,
}

impl ShardCache {
    /// Raw parts for the snapshot codec:
    /// `(eps_order, greedy_order, ladder if laid)`. The ε values are not
    /// part of it: they are the founding sequence read through
    /// `eps_order`.
    pub(crate) fn raw_parts(&self) -> (&[usize], &[usize], Option<&PmfLadder>) {
        (&self.eps_order, &self.greedy_order, self.ladder.get())
    }

    /// Rebuilds a shard cache from decoded parts, checking only the
    /// run-local shape (aligned lengths, ascending ε run). Membership
    /// consistency against the partition is [`ShardLayer::from_raw`]'s
    /// job — it sees all shards at once.
    pub(crate) fn from_raw_parts(
        eps_order: Vec<usize>,
        eps: Vec<f64>,
        greedy_order: Vec<usize>,
        ladder: Option<PmfLadder>,
    ) -> Option<Self> {
        if eps_order.len() != eps.len() || eps_order.len() != greedy_order.len() {
            return None;
        }
        if eps.windows(2).any(|w| w[0].partial_cmp(&w[1]).is_none_or(|o| o.is_gt())) {
            return None; // incomparable (NaN) rates rejected too
        }
        let cache = Self { eps_order, eps, greedy_order, ladder: OnceLock::new() };
        if let Some(ladder) = ladder {
            let _ = cache.ladder.set(ladder);
        }
        Some(cache)
    }

    /// The ladder, laid now if this is its first use.
    fn ladder(&self) -> &PmfLadder {
        self.ladder.get_or_init(|| PmfLadder::build(&self.eps))
    }
}

/// Private copies of shard caches for a cloned service, keyed by the
/// original's address so every holder of one cache in the clone keeps
/// sharing one copy.
pub(crate) type CacheCopies = HashMap<*const ShardCache, Arc<ShardCache>>;

/// Swaps `cache` for its copy in `copies` (made on first sight) when
/// its ladder is not laid yet. A laid cache stays shared: it is
/// immutable until a repair copies it on write. An unlaid one is a cell
/// a probe may still fill, and filling it through a shared handle would
/// lay the ladder in both services.
fn copy_if_unlaid(cache: &mut Arc<ShardCache>, copies: &mut CacheCopies) {
    if cache.ladder.get().is_none() {
        let copy = copies
            .entry(Arc::as_ptr(cache))
            .or_insert_with(|| Arc::new(ShardCache::clone(cache)))
            .clone();
        *cache = copy;
    }
}

/// One shard: how many positions it owns plus its cached state.
#[derive(Debug, Clone, Default)]
struct Shard {
    /// Pool positions this shard owns.
    size: usize,
    cache: Option<Arc<ShardCache>>,
    /// Whether the shard is currently flagged degenerate (membership
    /// below the configured fraction of the mean shard size). The flag
    /// makes each degeneracy *episode* count once in the stats.
    degenerate: bool,
}

/// The pool-level artefacts over the global orders.
#[derive(Debug, Clone)]
struct MergedCache {
    /// K-way merges of the shards' ε and greedy runs, `Arc`'d so
    /// equal-content pools can adopt one interned merge from the
    /// warm-artifact store ([`crate::store`]); in-place repairs go
    /// through `Arc::make_mut`. `None` for one shard, whose runs are
    /// the global orders.
    orders: Option<(SharedOrder, SharedOrder)>,
    /// The solved AltrM answer, shared so batch replays can hand out the
    /// same allocation.
    altr: Option<AltrAnswer>,
    /// Lazily computed odd-size JER profile (sequential pushes over the
    /// global ε run — bit-identical for every K; `O(N²)`, on demand;
    /// `Arc`'d for store seeding/publication across equal pools).
    profile: Option<Arc<JerProfile>>,
    /// The PayM budget→selection staircase over the greedy order,
    /// recorded lazily per budget and cleared by every mutation (the
    /// greedy trace it certifies may change). Serves pools that are not
    /// attached to the store; attached pools share the entry's.
    staircase: Staircase,
}

/// What one mutation did to a pool's warm state — folded into the
/// service's repair counters.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MutationEffect {
    /// Warm cached state was dropped *or* repaired.
    pub invalidated: bool,
    /// Sorted runs (shard and merged) were repaired in place instead of
    /// being dropped for re-sorting.
    pub orders_repaired: bool,
    /// The owning shard's pmf ladder was repaired by factor division.
    pub pmf_repaired: bool,
    /// The deconvolution guard declined and the ladder was rebuilt.
    pub pmf_rebuilt: bool,
    /// A materialised JER profile was repaired in place (one-shard
    /// pools).
    pub profile_repaired: bool,
    /// A juror insert was absorbed by in-place repair (rank-inserts plus
    /// ladder pushes) instead of dropping warm state.
    pub insert_repaired: bool,
    /// Shards that entered degeneracy because of this mutation.
    pub newly_degenerate: usize,
    /// Jurors moved between shards by the re-balance this mutation
    /// triggered (0 when no re-balance ran).
    pub rebalanced: usize,
}

/// A pool's complete per-shard warm layer — the partition plus every
/// shard's cache — interned in the warm-artifact store so
/// sequence-identical pools share one build of the K sorted runs and
/// pmf ladders. Adoption requires the owner vectors to match exactly
/// (partitions may legitimately diverge across different mutation
/// histories even over equal content); the caches are `Arc`-shared, and
/// `Arc::make_mut` at every repair site copies a shard off privately the
/// moment its pool mutates.
#[derive(Debug, Clone)]
pub(crate) struct ShardLayer {
    /// The owning shard per pool position; empty for one shard.
    owner: Vec<u32>,
    caches: Vec<Arc<ShardCache>>,
}

impl ShardLayer {
    /// Gives every unlaid cache its copy for a cloned service (see
    /// [`CacheCopies`]).
    pub(crate) fn copy_unlaid(&mut self, copies: &mut CacheCopies) {
        for cache in &mut self.caches {
            copy_if_unlaid(cache, copies);
        }
    }

    /// The owning shard per pool position (empty for one shard).
    pub(crate) fn owner(&self) -> &[u32] {
        &self.owner
    }

    /// The per-shard caches, indexed by shard.
    pub(crate) fn caches(&self) -> &[Arc<ShardCache>] {
        &self.caches
    }

    /// Rebuilds a layer over `n` positions from decoded parts,
    /// re-validating the partition invariants — snapshot bytes are
    /// untrusted and a malformed layer would index out of the pool or
    /// desynchronise the per-shard runs. The owner vector is empty for
    /// one shard and covers every position otherwise; each position must
    /// be owned by an existing shard and appear in **exactly** that
    /// shard's ε run and greedy run (checked with per-order seen maps,
    /// so duplicates and omissions both reject).
    pub(crate) fn from_raw(
        n: usize,
        owner: Vec<u32>,
        caches: Vec<Arc<ShardCache>>,
    ) -> Option<Self> {
        let single = caches.len() == 1;
        if caches.is_empty() || owner.len() != if single { 0 } else { n } {
            return None;
        }
        if owner.iter().any(|&o| (o as usize) >= caches.len()) {
            return None;
        }
        if caches.iter().map(|c| c.eps_order.len()).sum::<usize>() != n {
            return None;
        }
        let mut seen_eps = vec![false; n];
        let mut seen_greedy = vec![false; n];
        for (si, cache) in caches.iter().enumerate() {
            if cache.greedy_order.len() != cache.eps_order.len() {
                return None;
            }
            for (seen, order) in
                [(&mut seen_eps, &cache.eps_order), (&mut seen_greedy, &cache.greedy_order)]
            {
                for &p in order.iter() {
                    if p >= n
                        || (!single && owner[p] as usize != si)
                        || std::mem::replace(&mut seen[p], true)
                    {
                        return None;
                    }
                }
            }
        }
        Some(Self { owner, caches })
    }
}

/// A pool partitioned into K shards. Owns no jurors — all methods take
/// the registry's juror slice; member values are positions into it.
#[derive(Debug, Clone)]
pub(crate) struct ShardedPool {
    shards: Vec<Shard>,
    /// Owning shard per pool position when K > 1; empty for one shard,
    /// which owns every position.
    owner: Vec<u32>,
    merged: Option<MergedCache>,
    /// FFT plans + transform buffers for probe-time pmf merging.
    conv: ConvScratch,
}

impl ShardedPool {
    /// Partitions positions `0..len` round-robin over `k` shards
    /// (clamped to ≥ 1); all caches start cold. Shards already under the
    /// `degenerate_percent` line at birth (a pool smaller than K leaves
    /// some shards empty from creation) have their degeneracy flag
    /// pre-armed, so only shards *hollowed out by later mutations* ever
    /// count as episodes.
    pub(crate) fn new(len: usize, k: usize, degenerate_percent: usize) -> Self {
        let k = k.max(1);
        let shards = (0..k)
            .map(|i| Shard { size: len / k + usize::from(i < len % k), ..Shard::default() })
            .collect();
        let owner = if k == 1 { Vec::new() } else { (0..len).map(|i| (i % k) as u32).collect() };
        let mut pool = Self { shards, owner, merged: None, conv: ConvScratch::new() };
        pool.refresh_degeneracy(degenerate_percent);
        pool
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of pool positions.
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.size).sum()
    }

    /// The shard owning pool position `p`.
    fn owner_of(&self, p: usize) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            self.owner[p] as usize
        }
    }

    /// Whether the global orders exist (the warmth PayM needs); the
    /// AltrM answer and the profile may still be pending.
    pub(crate) fn has_orders(&self) -> bool {
        self.merged.is_some()
    }

    /// The global ε order, if warm.
    pub(crate) fn eps_order(&self) -> Option<&[usize]> {
        let merged = self.merged.as_ref()?;
        Some(match &merged.orders {
            Some((eps, _)) => eps.as_slice(),
            None => cache(&self.shards[0]).eps_order.as_slice(),
        })
    }

    /// The global greedy order, if warm.
    pub(crate) fn greedy_order(&self) -> Option<&[usize]> {
        let merged = self.merged.as_ref()?;
        Some(match &merged.orders {
            Some((_, greedy)) => greedy.as_slice(),
            None => cache(&self.shards[0]).greedy_order.as_slice(),
        })
    }

    /// The ε values aligned with [`Self::eps_order`] — held only by a
    /// warm one-shard pool, whose run is the global one.
    pub(crate) fn eps_run(&self) -> Option<&[f64]> {
        match self.merged.as_ref()?.orders {
            Some(_) => None,
            None => Some(&cache(&self.shards[0]).eps),
        }
    }

    /// The K-way-merged orders as shared handles, for publication to the
    /// warm-artifact store (`None` for one shard or a cold pool).
    pub(crate) fn merged_orders(&self) -> Option<(SharedOrder, SharedOrder)> {
        self.merged.as_ref().and_then(|m| m.orders.clone())
    }

    /// Registers the juror just appended to the pool (position =
    /// `len - 1`, so `jurors` is the **post-insert** pool), assigning it
    /// to the smallest shard. A warm owning shard is *repaired in
    /// place*: one rank-insert per sorted run (shard and merged) and,
    /// once laid, one [`PoiBin::push`] per affected ladder checkpoint
    /// ([`PmfLadder::repair_insert`] — inserts never need
    /// deconvolution, so this repair cannot decline).
    pub(crate) fn insert(&mut self, jurors: &[Juror]) -> MutationEffect {
        let idx = jurors.len() - 1;
        let target = (0..self.shards.len())
            .min_by_key(|&i| self.shards[i].size)
            .expect("at least one shard");
        if self.shards.len() > 1 {
            debug_assert_eq!(idx, self.owner.len());
            self.owner.push(target as u32);
        }
        self.shards[target].size += 1;
        let Some(cache) = self.shards[target].cache.as_mut() else {
            return self.drop_merged();
        };
        let cache = Arc::make_mut(cache);
        let mut effect = MutationEffect {
            invalidated: true,
            orders_repaired: true,
            insert_repaired: true,
            ..Default::default()
        };
        let r = rank_insert_eps(&mut cache.eps_order, Some(&mut cache.eps), jurors, idx);
        rank_insert_greedy(&mut cache.greedy_order, jurors, idx);
        if let Some(ladder) = cache.ladder.get_mut() {
            ladder.repair_insert(&cache.eps, r);
            effect.pmf_repaired = true;
        }
        self.repair_merged(r, &mut effect, |eps, greedy| {
            rank_insert_eps(eps, None, jurors, idx);
            rank_insert_greedy(greedy, jurors, idx);
        });
        effect
    }

    /// Repairs warm state after the juror at position `idx` was replaced
    /// in place: the owning shard's sorted runs get one remove + one
    /// rank-insert each, its laid pmf ladder one factor division per
    /// affected checkpoint, and the merged orders (if warm) the same
    /// remove + rank-insert — no re-sort, no re-merge, no
    /// re-convolution. `jurors` is the **post-update** pool and `old`
    /// the replaced juror (its keys locate the stale entries).
    pub(crate) fn update(&mut self, idx: usize, jurors: &[Juror], old: &Juror) -> MutationEffect {
        let s = self.owner_of(idx);
        let Some(cache) = self.shards[s].cache.as_mut() else {
            return self.drop_merged();
        };
        let cache = Arc::make_mut(cache);
        let mut effect =
            MutationEffect { invalidated: true, orders_repaired: true, ..Default::default() };
        let (r_old, r_new) =
            reinsert_eps(&mut cache.eps_order, Some(&mut cache.eps), jurors, idx, old);
        reinsert_greedy(&mut cache.greedy_order, jurors, idx, old);
        if let Some(ladder) = cache.ladder.get_mut() {
            if ladder.repair_update(&cache.eps, old.epsilon(), r_old, r_new) {
                effect.pmf_repaired = true;
            } else {
                effect.pmf_rebuilt = true;
            }
        }
        self.repair_merged(r_old.min(r_new), &mut effect, |eps, greedy| {
            reinsert_eps(eps, None, jurors, idx, old);
            reinsert_greedy(greedy, jurors, idx, old);
        });
        effect
    }

    /// Repairs warm state after position `idx` was removed (the registry
    /// does `Vec::remove`, shifting later positions down by one). The
    /// owning shard's runs and laid ladder are repaired in place like
    /// [`ShardedPool::update`]; every shard (and the merged orders) is
    /// renumbered in the same pass that drops the victim — decrementing
    /// positions greater than `idx` preserves each run's relative order
    /// under both comparators, so no sorted run, ε value or pmf
    /// checkpoint is ever recomputed. `jurors` is the **pre-removal**
    /// pool (the victim still present at `idx`): its ε entry is
    /// binary-located by rank, not scanned.
    pub(crate) fn remove(&mut self, idx: usize, jurors: &[Juror]) -> MutationEffect {
        let s = self.owner_of(idx);
        if self.shards.len() > 1 {
            self.owner.remove(idx);
        }
        self.shards[s].size -= 1;
        let mut effect = MutationEffect::default();
        let mut rank = 0usize;
        for (si, shard) in self.shards.iter_mut().enumerate() {
            let Some(cache) = shard.cache.as_mut() else { continue };
            let cache = Arc::make_mut(cache);
            if si == s {
                let r =
                    cache.eps_order.partition_point(|&j| eps_cmp(jurors, j, idx) == Ordering::Less);
                debug_assert_eq!(cache.eps_order.get(r), Some(&idx), "rank must locate the victim");
                let old_e = cache.eps.remove(r);
                if let Some(ladder) = cache.ladder.get_mut() {
                    if ladder.repair_remove(&cache.eps, old_e, r) {
                        effect.pmf_repaired = true;
                    } else {
                        effect.pmf_rebuilt = true;
                    }
                }
                effect.invalidated = true;
                effect.orders_repaired = true;
                rank = r;
            }
            renumber_out(&mut cache.eps_order, idx);
            renumber_out(&mut cache.greedy_order, idx);
        }
        if !effect.invalidated {
            // The owning shard was cold, so any merged orders were
            // already stale.
            return self.drop_merged();
        }
        self.repair_merged(rank, &mut effect, |eps, greedy| {
            renumber_out(eps, idx);
            renumber_out(greedy, idx);
        });
        effect
    }

    /// A mutation that hit a cold shard: there is nothing to repair, and
    /// merged orders that survived lack the change — drop them.
    fn drop_merged(&mut self) -> MutationEffect {
        MutationEffect { invalidated: self.merged.take().is_some(), ..Default::default() }
    }

    /// The pool-level half of a repair whose lowest changed ε rank is
    /// `rank`: `fix` patches the K-way-merged orders (a one-shard pool's
    /// runs already are its global orders), the AltrM answer and the
    /// staircase drop, and a one-shard pool's materialised profile is
    /// repaired in place — entries below `rank` reused verbatim, the
    /// suffix re-derived by pushes resumed from the deepest ladder
    /// checkpoint at or below it (or from scratch while no ladder is
    /// laid). Resumed entries carry the checkpoint's lineage —
    /// numerically within [`crate::PROBE_REPAIR_TOL`] of a rebuild,
    /// outside the bit-identity contract (nothing on a solver path reads
    /// a profile). A K-shard pool's profile drops.
    fn repair_merged(
        &mut self,
        rank: usize,
        effect: &mut MutationEffect,
        fix: impl FnOnce(&mut Vec<usize>, &mut Vec<usize>),
    ) {
        let Self { shards, merged, .. } = self;
        let Some(merged) = merged.as_mut() else { return };
        merged.altr = None;
        merged.staircase.clear();
        match &mut merged.orders {
            Some((eps, greedy)) => {
                fix(Arc::make_mut(eps), Arc::make_mut(greedy));
                merged.profile = None;
            }
            None => {
                let Some(profile) = merged.profile.as_mut() else { return };
                let run = cache(&shards[0]);
                let mut pmf = PoiBin::empty();
                let resume = match run.ladder.get().and_then(|l| l.resume_for(rank)) {
                    Some((len, checkpoint)) => {
                        pmf.copy_from(checkpoint);
                        len
                    }
                    None => 0,
                };
                Arc::make_mut(profile).repair_from(&run.eps, rank, resume, &mut pmf);
                effect.profile_repaired = true;
            }
        }
    }

    /// Builds every cold shard and, when missing, the global orders;
    /// returns how many shards were built. A cold one-shard pool sorts
    /// its greedy run beside the ε sort ([`beside_greedy_order`]) and,
    /// given `altr`, solves the AltrM answer over the fresh ε run on
    /// this thread while the greedy sort finishes; K-shard pools fan
    /// their cold shards out over scoped threads and leave the answer to
    /// [`Self::ensure_altr`].
    pub(crate) fn warm(
        &mut self,
        jurors: &[Juror],
        threads: usize,
        altr: Option<(&AltrConfig, &mut SolverScratch)>,
    ) -> usize {
        let mut answer = None;
        let built = if self.shards.len() > 1 {
            self.warm_shards(jurors)
        } else if self.shards[0].cache.is_none() {
            let ((eps_order, eps), greedy_order) =
                beside_greedy_order(jurors, 0..jurors.len(), threads, || {
                    let (eps_order, eps) = eps_run(jurors, 0..jurors.len());
                    answer = altr.map(|(config, scratch)| {
                        solve_altr_cached(jurors, &eps_order, Some(&eps), config, scratch)
                    });
                    (eps_order, eps)
                });
            let cache = ShardCache { eps_order, eps, greedy_order, ladder: OnceLock::new() };
            self.shards[0].cache = Some(Arc::new(cache));
            1
        } else {
            0
        };
        if self.merged.is_none() {
            self.merge(jurors);
        }
        if let (Some(answer), Some(merged)) = (answer, self.merged.as_mut()) {
            merged.altr = Some(answer);
        }
        built
    }

    /// Builds every cold shard of a K-shard pool, returning how many
    /// were built. When more than one shard is cold (creation, bulk
    /// ingest) the independent builds fan out over scoped threads.
    fn warm_shards(&mut self, jurors: &[Juror]) -> usize {
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (p, &o) in self.owner.iter().enumerate() {
            if self.shards[o as usize].cache.is_none() {
                members[o as usize].push(p);
            }
        }
        let cold: Vec<usize> =
            (0..self.shards.len()).filter(|&si| self.shards[si].cache.is_none()).collect();
        let build = |si: usize| {
            let (eps_order, eps) = eps_run(jurors, members[si].iter().copied());
            let greedy_order = greedy_run(jurors, members[si].iter().copied());
            (si, ShardCache { eps_order, eps, greedy_order, ladder: OnceLock::new() })
        };
        let built: Vec<(usize, ShardCache)> = if cold.len() <= 1 {
            cold.iter().map(|&si| build(si)).collect()
        } else {
            let workers = effective_threads(0).min(cold.len());
            let chunk = cold.len().div_ceil(workers);
            std::thread::scope(|scope| {
                let handles: Vec<_> = cold
                    .chunks(chunk)
                    .map(|ids| {
                        scope.spawn(move || ids.iter().map(|&si| build(si)).collect::<Vec<_>>())
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|handle| handle.join().expect("shard rebuild worker panicked"))
                    .collect()
            })
        };
        for (si, cache) in built {
            self.shards[si].cache = Some(Arc::new(cache));
        }
        cold.len()
    }

    /// Lays the global orders over warm shards: K-way merges of the runs
    /// for K > 1, nothing to copy for one shard.
    fn merge(&mut self, jurors: &[Juror]) {
        let orders = (self.shards.len() > 1).then(|| {
            let eps_runs: Vec<&[usize]> =
                self.shards.iter().map(|s| cache(s).eps_order.as_slice()).collect();
            let mut eps_order = Vec::new();
            kway_merge_by(&eps_runs, |a, b| eps_cmp(jurors, a, b), &mut eps_order);
            let greedy_runs: Vec<&[usize]> =
                self.shards.iter().map(|s| cache(s).greedy_order.as_slice()).collect();
            let mut greedy_order = Vec::new();
            kway_merge_by(&greedy_runs, |a, b| PayAlg::greedy_cmp(jurors, a, b), &mut greedy_order);
            (Arc::new(eps_order), Arc::new(greedy_order))
        });
        self.merged =
            Some(MergedCache { orders, altr: None, profile: None, staircase: Staircase::new() });
    }

    /// Gives every unlaid shard cache its copy for a cloned service (see
    /// [`CacheCopies`]).
    pub(crate) fn copy_unlaid(&mut self, copies: &mut CacheCopies) {
        for cache in self.shards.iter_mut().filter_map(|s| s.cache.as_mut()) {
            copy_if_unlaid(cache, copies);
        }
    }

    /// The per-shard warm layer as shared handles, for publication to
    /// the warm-artifact store. `None` while any shard is cold.
    pub(crate) fn export_layer(&self) -> Option<ShardLayer> {
        let caches: Option<Vec<Arc<ShardCache>>> =
            self.shards.iter().map(|s| s.cache.clone()).collect();
        Some(ShardLayer { owner: self.owner.clone(), caches: caches? })
    }

    /// Serves this pool from an interned layer over identical content:
    /// where the partitions agree — the owner vectors are compared, not
    /// trusted, since per-shard runs are a property of the partition —
    /// the interned shard caches replace this pool's own; any shard
    /// still cold is built privately, and the global orders become the
    /// interned merge (`merged`, partition-independent) or the adopted
    /// single run. The AltrM answer and profile start empty for the
    /// caller to seed from the store entry. Returns how many shards were
    /// built privately.
    pub(crate) fn adopt(
        &mut self,
        layer: &ShardLayer,
        merged: Option<&(SharedOrder, SharedOrder)>,
        jurors: &[Juror],
        threads: usize,
    ) -> usize {
        if layer.caches.len() == self.shards.len() && layer.owner == self.owner {
            for (shard, cache) in self.shards.iter_mut().zip(&layer.caches) {
                shard.cache = Some(cache.clone());
            }
        }
        self.merged = merged.filter(|_| self.shards.len() > 1).map(|orders| MergedCache {
            orders: Some(orders.clone()),
            altr: None,
            profile: None,
            staircase: Staircase::new(),
        });
        self.warm(jurors, threads, None)
    }

    /// Moves members from the largest shards into degenerate ones until
    /// no shard sits under the [`ShardConfig::degenerate_percent`] line
    /// (or no move can make progress), returning how many jurors moved.
    /// Each move repairs both shards in place ([`Self::move_member`]):
    /// one rank-remove + one rank-insert per sorted run, a factor
    /// division / push per affected checkpoint of a laid ladder. The
    /// merged orders are untouched — re-balancing permutes shard
    /// membership only, and the K-way merge of the new runs is the same
    /// global permutation — so every selection stays bit-identical
    /// across the episode.
    pub(crate) fn rebalance(&mut self, jurors: &[Juror], percent: usize) -> usize {
        let k = self.shards.len();
        let total = self.len();
        let mut moved = 0usize;
        loop {
            let mut dest: Option<(usize, usize)> = None;
            let mut src = 0usize;
            for (i, shard) in self.shards.iter().enumerate() {
                let len = shard.size;
                if len * k * 100 < percent * total && dest.is_none_or(|(_, dl)| len < dl) {
                    dest = Some((i, len));
                }
                if len > self.shards[src].size {
                    src = i;
                }
            }
            let Some((d, dl)) = dest else { break };
            if src == d || self.shards[src].size <= dl + 1 {
                break; // a move would only swap the imbalance around
            }
            let m = self
                .owner
                .iter()
                .rposition(|&o| o as usize == src)
                .expect("largest shard is non-empty");
            self.move_member(m, src, d, jurors);
            moved += 1;
        }
        moved
    }

    /// Moves pool position `m` from shard `src` to shard `dst`,
    /// repairing both shards' sorted runs and laid pmf ladders in place.
    /// The removal side mirrors [`Self::remove`] without the renumbering
    /// (the pool itself is unchanged); the insertion side mirrors
    /// [`Self::insert`]. Cold shards just update membership.
    fn move_member(&mut self, m: usize, src: usize, dst: usize, jurors: &[Juror]) {
        self.owner[m] = dst as u32;
        self.shards[src].size -= 1;
        self.shards[dst].size += 1;
        if let Some(cache) = self.shards[src].cache.as_mut() {
            let cache = Arc::make_mut(cache);
            let r = cache.eps_order.partition_point(|&j| eps_cmp(jurors, j, m) == Ordering::Less);
            debug_assert_eq!(cache.eps_order.get(r), Some(&m), "rank must locate the mover");
            cache.eps_order.remove(r);
            let old_e = cache.eps.remove(r);
            if let Some(ladder) = cache.ladder.get_mut() {
                // A declined deconvolution rebuilds the ladder
                // internally — either way the source shard stays warm.
                let _ = ladder.repair_remove(&cache.eps, old_e, r);
            }
            let g = cache
                .greedy_order
                .partition_point(|&j| PayAlg::greedy_cmp(jurors, j, m) == Ordering::Less);
            debug_assert_eq!(cache.greedy_order.get(g), Some(&m), "rank must locate the mover");
            cache.greedy_order.remove(g);
        }
        if let Some(cache) = self.shards[dst].cache.as_mut() {
            let cache = Arc::make_mut(cache);
            let r = rank_insert_eps(&mut cache.eps_order, Some(&mut cache.eps), jurors, m);
            if let Some(ladder) = cache.ladder.get_mut() {
                ladder.repair_insert(&cache.eps, r);
            }
            rank_insert_greedy(&mut cache.greedy_order, jurors, m);
        }
    }

    /// Re-evaluates every shard's degeneracy flag against the current
    /// mean shard size; returns how many shards *entered* degeneracy
    /// (each episode counts once — a shard recovering above the line
    /// re-arms its flag). `O(K)`, called by the registry after
    /// membership-changing mutations.
    pub(crate) fn refresh_degeneracy(&mut self, percent: usize) -> usize {
        let k = self.shards.len();
        let total = self.len();
        let mut newly = 0usize;
        for shard in &mut self.shards {
            // members < (percent/100) · (total/K), in integer arithmetic.
            let degenerate = shard.size * k * 100 < percent * total;
            if degenerate && !shard.degenerate {
                newly += 1;
            }
            shard.degenerate = degenerate;
        }
        newly
    }

    /// The cached AltrM answer, if already solved.
    pub(crate) fn altr(&self) -> Option<&AltrAnswer> {
        self.merged.as_ref().and_then(|m| m.altr.as_ref())
    }

    /// Installs an AltrM answer solved over identical global orders (a
    /// store entry's) without re-running the scan.
    pub(crate) fn seed_altr(&mut self, answer: AltrAnswer) {
        if let Some(merged) = self.merged.as_mut() {
            merged.altr = Some(answer);
        }
    }

    /// Solves AltrM over the global ε order (bound-pruned under the
    /// default strategy, reading a one-shard pool's ε run) and caches
    /// the result. Requires warm orders.
    pub(crate) fn ensure_altr(
        &mut self,
        jurors: &[Juror],
        config: &AltrConfig,
        scratch: &mut SolverScratch,
    ) -> &AltrAnswer {
        if self.altr().is_none() {
            let order = self.eps_order().expect("warm orders precede the AltrM solve");
            let answer = solve_altr_cached(jurors, order, self.eps_run(), config, scratch);
            self.seed_altr(answer);
        }
        self.altr().expect("filled above")
    }

    /// The cached JER profile, if materialised.
    pub(crate) fn profile(&self) -> Option<&Arc<JerProfile>> {
        self.merged.as_ref().and_then(|m| m.profile.as_ref())
    }

    /// Installs a profile built over an identical global ε order.
    pub(crate) fn seed_profile(&mut self, profile: Arc<JerProfile>) {
        if let Some(merged) = self.merged.as_mut() {
            merged.profile = Some(profile);
        }
    }

    /// The odd-size JER profile over the global ε order, computed lazily
    /// with the same sequential pushes for every K (bit-identical, and
    /// therefore shareable across equal-content pools — the service
    /// seeds/publishes it through the warm-artifact store). Requires
    /// warm orders.
    pub(crate) fn ensure_profile(&mut self, jurors: &[Juror]) -> &Arc<JerProfile> {
        if self.profile().is_none() {
            let profile = match self.eps_run() {
                Some(eps) => JerProfile::build(eps),
                None => {
                    let order = self.eps_order().expect("warm orders precede the profile");
                    let eps: Vec<f64> = order.iter().map(|&i| jurors[i].epsilon()).collect();
                    JerProfile::build(&eps)
                }
            };
            self.seed_profile(Arc::new(profile));
        }
        self.profile().expect("filled above")
    }

    /// Lays every warm shard's ladder that is still missing, returning
    /// whether one was laid — the profile read's companion, so later
    /// profile repairs resume from checkpoints instead of from scratch.
    pub(crate) fn lay_ladders(&self) -> bool {
        let mut laid = false;
        for cache in self.shards.iter().filter_map(|s| s.cache.as_deref()) {
            laid |= cache.ladder.get().is_none();
            cache.ladder();
        }
        laid
    }

    /// JER of the best `n`-juror jury via per-shard prefix pmfs: the
    /// global best-`n` prefix is split into per-shard counts, each shard
    /// resumes from its nearest ladder checkpoint (or batch-builds beyond
    /// the ladder), and the distributions are combined with
    /// [`PoiBin::merge_into`] — `O(n·spacing + n log n)` instead of
    /// `O(n²)` pushes. A prefix held by one shard is read straight off
    /// its ladder. Numerically equal to a fresh evaluation within
    /// convolution rounding (not bit-identical; see the module docs).
    /// Ladders are laid on first use; the flag says whether this probe
    /// laid one.
    ///
    /// Requires warm orders; `n` must be `1..=len`.
    pub(crate) fn jer_probe(&mut self, n: usize) -> (f64, bool) {
        let order = self.eps_order().expect("warm orders precede jer_probe");
        let mut counts = vec![0usize; self.shards.len()];
        if self.shards.len() == 1 {
            counts[0] = n;
        } else {
            for &g in &order[..n] {
                counts[self.owner[g] as usize] += 1;
            }
        }
        let Self { shards, conv, .. } = self;
        let mut laid = false;
        let mut acc: Option<PoiBin> = None;
        let mut shard_pmf = PoiBin::empty();
        let mut merged = PoiBin::empty();
        for (shard, &c) in shards.iter().zip(&counts) {
            if c == 0 {
                continue;
            }
            let cache = cache(shard);
            laid |= cache.ladder.get().is_none();
            cache.ladder().prefix_into(&cache.eps, c, &mut shard_pmf);
            match acc.as_mut() {
                None => acc = Some(std::mem::replace(&mut shard_pmf, PoiBin::empty())),
                Some(acc) => {
                    acc.merge_into(&shard_pmf, conv, &mut merged);
                    std::mem::swap(acc, &mut merged);
                }
            }
        }
        let pmf = acc.expect("a probe covers at least one juror");
        (pmf.tail(JerEngine::majority_threshold(n)), laid)
    }

    /// The global greedy order together with the pool's own budget
    /// staircase, for the mutable PayM solve path. `None` while cold.
    pub(crate) fn paym_cache(&mut self) -> Option<(&[usize], &mut Staircase)> {
        let Self { shards, merged, .. } = self;
        let MergedCache { orders, staircase, .. } = merged.as_mut()?;
        let order = match orders {
            Some((_, greedy)) => greedy.as_slice(),
            None => cache(&shards[0]).greedy_order.as_slice(),
        };
        Some((order, staircase))
    }

    /// Read-only replay of the pool's own staircase for `budget` (the
    /// worker path of batched solving), if warm and covered.
    pub(crate) fn staircase_lookup(&self, budget: f64) -> Option<Result<Selection, JuryError>> {
        self.merged.as_ref().and_then(|m| m.staircase.lookup(budget))
    }

    /// Whether the pool's own warm staircase already covers `budget`.
    pub(crate) fn staircase_covers(&self, budget: f64) -> bool {
        self.merged.as_ref().is_some_and(|m| m.staircase.covers(budget))
    }
}

/// Smallest pool whose cold build sorts the greedy order on a second
/// thread. Below it the spawn (tens of µs) is a visible share of the
/// sort it moves off the critical path. Timed as the median of 401–601
/// alternating cold builds (`create_pool` + `warm_pool`, threads 1 vs 2,
/// on 2 vCPUs), the thread cost 5–54% at 1,024–1,536 jurors, went either
/// way at 2,048–3,072 (0.69–1.53× as the host's speed drifted), and won
/// at 4,096 and above in every run (0.68–1.01× at 4,096, 0.67–0.84× at
/// 6,144–8,192).
pub(crate) const PARALLEL_BUILD_MIN: usize = 4_096;

/// Runs `work` on this thread and sorts the greedy run of `positions`
/// beside it: on a scoped thread when there are at least
/// [`PARALLEL_BUILD_MIN`] positions and the configured `threads` resolve
/// to more than one worker, after `work` otherwise.
fn beside_greedy_order<T>(
    jurors: &[Juror],
    positions: impl ExactSizeIterator<Item = usize> + Send,
    threads: usize,
    work: impl FnOnce() -> T,
) -> (T, Vec<usize>) {
    let parallel = positions.len() >= PARALLEL_BUILD_MIN && effective_threads(threads) >= 2;
    let greedy = || greedy_run(jurors, positions);
    if !parallel {
        let done = work();
        return (done, greedy());
    }
    std::thread::scope(|scope| {
        let sorter = scope.spawn(greedy);
        let done = work();
        (done, sorter.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
    })
}

/// The ε-sorted run of `positions` and the rates aligned with it.
fn eps_run(
    jurors: &[Juror],
    positions: impl ExactSizeIterator<Item = usize>,
) -> (Vec<usize>, Vec<f64>) {
    let mut order = Vec::new();
    visit_order(jurors, positions, VisitOrder::Eps, &mut order);
    let eps = order.iter().map(|&i| jurors[i].epsilon()).collect();
    (order, eps)
}

/// The greedy-sorted run of `positions`.
fn greedy_run(jurors: &[Juror], positions: impl ExactSizeIterator<Item = usize>) -> Vec<usize> {
    let mut order = Vec::new();
    visit_order(jurors, positions, VisitOrder::Greedy, &mut order);
    order
}

/// One remove + one rank-insert of `idx` in an ε-sorted run after its
/// juror changed: the stale entry is binary-located with the
/// pre-mutation rate, the fresh rank found under the post-mutation pool
/// — the same permutation a full re-sort would produce, since
/// [`eps_cmp`] is total. Maintains the aligned ε values when given;
/// returns `(old_rank, new_rank)` for ladder repair.
fn reinsert_eps(
    order: &mut Vec<usize>,
    mut eps: Option<&mut Vec<f64>>,
    jurors: &[Juror],
    idx: usize,
    old: &Juror,
) -> (usize, usize) {
    let r_old = locate_eps(order, jurors, idx, old.epsilon());
    order.remove(r_old);
    if let Some(eps) = eps.as_deref_mut() {
        eps.remove(r_old);
    }
    let r_new = rank_insert_eps(order, eps, jurors, idx);
    (r_old, r_new)
}

/// The [`reinsert_eps`] of the greedy order: one remove + one
/// rank-insert under [`PayAlg::greedy_cmp`].
fn reinsert_greedy(order: &mut Vec<usize>, jurors: &[Juror], idx: usize, old: &Juror) {
    let g_old = locate_greedy(order, jurors, idx, old);
    order.remove(g_old);
    rank_insert_greedy(order, jurors, idx);
}

/// Rank-inserts pool position `idx` into an ε-sorted run — the insert
/// half of [`reinsert_eps`], shared by the per-shard and merged insert
/// repairs. Maintains the aligned ε values when given; returns the new
/// rank for ladder repair.
fn rank_insert_eps(
    order: &mut Vec<usize>,
    eps: Option<&mut Vec<f64>>,
    jurors: &[Juror],
    idx: usize,
) -> usize {
    let r = order.partition_point(|&j| eps_cmp(jurors, j, idx) == Ordering::Less);
    order.insert(r, idx);
    if let Some(eps) = eps {
        eps.insert(r, jurors[idx].epsilon());
    }
    r
}

/// Rank-inserts pool position `idx` into a greedy-sorted run.
fn rank_insert_greedy(order: &mut Vec<usize>, jurors: &[Juror], idx: usize) {
    let g = order.partition_point(|&j| PayAlg::greedy_cmp(jurors, j, idx) == Ordering::Less);
    order.insert(g, idx);
}

/// Binary-locates position `idx` in an ε-sorted run using the juror's
/// *pre-mutation* rate (the run is still sorted under it; probing any
/// other entry reads the pool, where only `idx` changed).
fn locate_eps(order: &[usize], jurors: &[Juror], idx: usize, old_eps: f64) -> usize {
    let pos = order.partition_point(|&j| {
        let (e, i) = if j == idx { (old_eps, idx) } else { (jurors[j].epsilon(), j) };
        e.total_cmp(&old_eps).then(i.cmp(&idx)) == Ordering::Less
    });
    debug_assert_eq!(order.get(pos), Some(&idx), "stale entry must sit at its old rank");
    pos
}

/// Binary-locates position `idx` in a greedy-sorted run using the
/// juror's pre-mutation keys (same construction as [`locate_eps`], over
/// [`PayAlg::greedy_cmp`]'s full tie-break chain).
fn locate_greedy(order: &[usize], jurors: &[Juror], idx: usize, old: &Juror) -> usize {
    let (ok, oc, oe) = (old.greedy_key(), old.cost, old.epsilon());
    let pos = order.partition_point(|&j| {
        let (k, c, e, i) = if j == idx {
            (ok, oc, oe, idx)
        } else {
            (jurors[j].greedy_key(), jurors[j].cost, jurors[j].epsilon(), j)
        };
        k.total_cmp(&ok).then(c.total_cmp(&oc)).then(e.total_cmp(&oe)).then(i.cmp(&idx))
            == Ordering::Less
    });
    debug_assert_eq!(order.get(pos), Some(&idx), "stale entry must sit at its old rank");
    pos
}

/// Removes `idx` from a position list and renumbers the survivors
/// (positions greater than `idx` shift down by one), preserving order,
/// in one pass.
fn renumber_out(order: &mut Vec<usize>, idx: usize) {
    order.retain_mut(|v| {
        if *v == idx {
            return false;
        }
        if *v > idx {
            *v -= 1;
        }
        true
    });
}

/// Shorthand for a shard's cache that a warm-up has guaranteed to exist.
fn cache(shard: &Shard) -> &ShardCache {
    shard.cache.as_deref().expect("shard warmed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use jury_core::juror::pool_from_rates_and_costs;
    use jury_core::solver::sorted_order_into;

    fn pool(n: usize) -> Vec<Juror> {
        let quotes: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let u = (i as f64 * 0.6180339887498949) % 1.0;
                (0.02 + 0.93 * u, ((i * 13) % 7) as f64 / 7.0)
            })
            .collect();
        pool_from_rates_and_costs(&quotes).unwrap()
    }

    fn warmed(jurors: &[Juror], k: usize) -> ShardedPool {
        let mut sp = ShardedPool::new(jurors.len(), k, 25);
        sp.warm(jurors, 1, None);
        sp
    }

    fn assert_orders_match_sorts(sp: &ShardedPool, jurors: &[Juror], ctx: &str) {
        let mut flat_eps = Vec::new();
        sorted_order_into(jurors, &mut flat_eps);
        assert_eq!(sp.eps_order().unwrap(), flat_eps.as_slice(), "{ctx}: ε order");
        let mut flat_greedy = Vec::new();
        PayAlg::greedy_order_into(jurors, &mut flat_greedy);
        assert_eq!(sp.greedy_order().unwrap(), flat_greedy.as_slice(), "{ctx}: greedy order");
    }

    fn direct_probe(jurors: &[Juror], n: usize) -> f64 {
        let mut order = Vec::new();
        sorted_order_into(jurors, &mut order);
        let eps: Vec<f64> = order.iter().map(|&i| jurors[i].epsilon()).collect();
        PoiBin::from_error_rates(&eps[..n]).tail(JerEngine::majority_threshold(n))
    }

    #[test]
    fn merged_orders_match_flat_sorts_across_k_and_sizes() {
        for &n in &[0usize, 1, 2, 5, 17, 100] {
            for &k in &[1usize, 2, 7, 16] {
                let jurors = pool(n);
                assert_orders_match_sorts(&warmed(&jurors, k), &jurors, &format!("n={n} k={k}"));
            }
        }
    }

    #[test]
    fn one_shard_aliases_its_run_and_solves_beside_the_greedy_sort() {
        // Above the parallel-build floor, with two threads: the greedy
        // run sorts on a scoped thread while the AltrM scan reads the
        // fresh ε run, and the global orders are that run itself.
        let jurors = pool(PARALLEL_BUILD_MIN + 7);
        let mut sp = ShardedPool::new(jurors.len(), 1, 25);
        let config = AltrConfig::default();
        let mut scratch = SolverScratch::new();
        assert_eq!(sp.warm(&jurors, 2, Some((&config, &mut scratch))), 1);
        assert!(sp.merged_orders().is_none(), "one shard keeps no merged copy");
        let run = cache(&sp.shards[0]);
        assert!(std::ptr::eq(sp.eps_order().unwrap(), run.eps_order.as_slice()));
        assert!(std::ptr::eq(sp.eps_run().unwrap(), run.eps.as_slice()));
        assert!(std::ptr::eq(sp.greedy_order().unwrap(), run.greedy_order.as_slice()));
        assert!(run.ladder.get().is_none(), "a cold build lays no ladder");
        assert_orders_match_sorts(&sp, &jurors, "one shard");
        let answer = sp.altr().expect("solved during the build").as_ref().unwrap();
        let direct = jury_core::altr::AltrAlg::solve(&jurors, &config).unwrap();
        assert_eq!(answer.members, direct.members);
        assert_eq!(answer.jer.to_bits(), direct.jer.to_bits());
    }

    #[test]
    fn shard_builds_match_comparator_sorts_on_colliding_keys() {
        // Equal ε, equal ε·r reached through different costs, and signed
        // zero costs: every tie-break of both comparators is exercised.
        let quotes: Vec<(f64, f64)> = (0..240)
            .map(|i| match i % 4 {
                0 => (0.3, [0.0, -0.0, 0.5][i % 3]),
                1 => [(0.2, 0.5), (0.4, 0.25), (0.1, 1.0)][i % 3],
                2 => (0.5, 0.2),
                _ => (0.05 + (i as f64 * 0.618) % 0.9, 0.0),
            })
            .collect();
        let jurors = pool_from_rates_and_costs(&quotes).unwrap();
        for stride in [1usize, 2, 3, 5] {
            for offset in 0..stride {
                let members: Vec<usize> = (offset..jurors.len()).step_by(stride).rev().collect();
                let (eps_order, eps) = eps_run(&jurors, members.iter().copied());
                let greedy_order = greedy_run(&jurors, members.iter().copied());
                let mut want = members.clone();
                want.sort_by(|&a, &b| eps_cmp(&jurors, a, b));
                assert_eq!(eps_order, want, "eps, stride {stride} offset {offset}");
                let rates: Vec<f64> = want.iter().map(|&i| jurors[i].epsilon()).collect();
                assert_eq!(eps, rates);
                want.sort_by(|&a, &b| PayAlg::greedy_cmp(&jurors, a, b));
                assert_eq!(greedy_order, want, "greedy, stride {stride} offset {offset}");
            }
        }
    }

    #[test]
    fn remove_repairs_in_place_and_renumbers() {
        for k in [1usize, 4] {
            let mut jurors = pool(40);
            let mut sp = warmed(&jurors, k);
            let victim = 11; // shard 11 % 4 == 3 for k = 4
            let effect = sp.remove(victim, &jurors);
            jurors.remove(victim);
            assert!(effect.invalidated && effect.orders_repaired, "k={k}");
            // Every shard stays warm — the owning one was repaired, not
            // dropped — and the global orders survive the renumbering.
            assert!(sp.shards.iter().all(|s| s.cache.is_some()), "k={k}");
            assert_eq!(sp.warm(&jurors, 1, None), 0, "k={k}: nothing rebuilt");
            assert_orders_match_sorts(&sp, &jurors, &format!("k={k}"));
        }
    }

    #[test]
    fn update_repairs_orders_and_ladder_in_place() {
        use jury_core::juror::ErrorRate;
        for k in [1usize, 4] {
            let mut jurors = pool(300);
            let mut sp = warmed(&jurors, k);
            sp.jer_probe(299); // lays every ladder
            for (step, &(idx, e)) in [(17usize, 0.9f64), (4, 0.021), (120, 0.44)].iter().enumerate()
            {
                let old = jurors[idx];
                jurors[idx] = Juror::new(900 + step as u32, ErrorRate::new(e).unwrap(), 0.3);
                let effect = sp.update(idx, &jurors, &old);
                assert!(effect.invalidated && effect.orders_repaired, "k={k} step {step}");
                assert!(effect.pmf_repaired || effect.pmf_rebuilt, "k={k} step {step}");
                // Repaired orders equal full re-sorts, bit for bit.
                assert_orders_match_sorts(&sp, &jurors, &format!("k={k} step {step}"));
                // Repaired ladders keep probes within the documented bound.
                for n in [1usize, 63, 65, 129, 299] {
                    let (probed, laid) = sp.jer_probe(n);
                    assert!(!laid, "k={k} step {step}: ladders were laid before");
                    assert!(
                        (probed - direct_probe(&jurors, n)).abs() < crate::ladder::PROBE_REPAIR_TOL,
                        "k={k} step {step} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn mutations_leave_an_unlaid_ladder_unlaid() {
        use jury_core::juror::ErrorRate;
        for k in [1usize, 3] {
            let mut jurors = pool(200);
            let mut sp = warmed(&jurors, k);
            let old = jurors[5];
            jurors[5] = Juror::new(77, ErrorRate::new(0.11).unwrap(), 0.2);
            let update = sp.update(5, &jurors, &old);
            let removal = sp.remove(9, &jurors);
            jurors.remove(9);
            jurors.push(jurors[0]);
            let insert = sp.insert(&jurors);
            for effect in [update, removal, insert] {
                assert!(effect.orders_repaired, "k={k}");
                assert!(!effect.pmf_repaired && !effect.pmf_rebuilt, "k={k}: no ladder to repair");
            }
            assert!(sp.shards.iter().all(|s| cache(s).ladder.get().is_none()), "k={k}");
            assert_orders_match_sorts(&sp, &jurors, &format!("k={k}"));
        }
    }

    #[test]
    fn insert_repairs_the_owning_shard_in_place() {
        let mut jurors = pool(9);
        let mut sp = warmed(&jurors, 4); // shard sizes 3,2,2,2
        sp.jer_probe(9);
        jurors.push(jurors[0]);
        let effect = sp.insert(&jurors);
        assert_eq!(sp.owner[9], 1, "smallest shard with lowest id wins");
        assert!(effect.invalidated && effect.orders_repaired && effect.insert_repaired);
        assert!(effect.pmf_repaired);
        // Nothing went cold: the owning shard was repaired and the
        // merged orders absorbed the newcomer by rank-insert.
        assert!(sp.shards.iter().all(|s| s.cache.is_some()));
        assert_eq!(sp.warm(&jurors, 1, None), 0);
        assert_orders_match_sorts(&sp, &jurors, "insert");
    }

    #[test]
    fn sustained_ingest_keeps_probes_within_tolerance() {
        for k in [1usize, 4] {
            let mut jurors = pool(200);
            let mut sp = warmed(&jurors, k);
            sp.jer_probe(199);
            for step in 0..150 {
                jurors.push(jurors[(step * 7) % 50]);
                let effect = sp.insert(&jurors);
                assert!(effect.insert_repaired, "k={k}: warm inserts must repair, step {step}");
            }
            for n in [1usize, 63, 65, 129, 349] {
                let (probed, _) = sp.jer_probe(n);
                assert!(
                    (probed - direct_probe(&jurors, n)).abs() < crate::ladder::PROBE_REPAIR_TOL,
                    "k={k} n={n}"
                );
            }
        }
    }

    #[test]
    fn bulk_cold_shards_build_in_parallel() {
        // A creation-cold pool has every shard dirty at once; the warm-up
        // fans the independent builds over scoped threads.
        let jurors = pool(88);
        let mut sp = ShardedPool::new(88, 8, 25);
        assert_eq!(sp.warm(&jurors, 0, None), 8);
        // The threaded rebuild must be invisible in the results.
        assert_orders_match_sorts(&sp, &jurors, "parallel build");
    }

    #[test]
    fn rebalance_heals_degeneracy_without_touching_merged_orders() {
        let mut jurors = pool(60);
        let mut sp = warmed(&jurors, 4);
        sp.jer_probe(59);
        // Hollow out shard 2 until it is degenerate.
        while sp.shards[2].size > 1 {
            let victim = sp.owner.iter().rposition(|&o| o == 2).unwrap();
            sp.remove(victim, &jurors);
            jurors.remove(victim);
        }
        assert!(sp.refresh_degeneracy(25) > 0, "the hollowed shard must be flagged");
        let merged_before: Vec<usize> = sp.eps_order().unwrap().to_vec();
        let greedy_before: Vec<usize> = sp.greedy_order().unwrap().to_vec();
        let moved = sp.rebalance(&jurors, 25);
        assert!(moved > 0, "the episode must move jurors");
        sp.refresh_degeneracy(25);
        assert!(sp.shards.iter().all(|s| !s.degenerate), "re-balance must heal the flag");
        // Membership permutation only: merged orders byte-for-byte
        // unchanged, every shard still warm and internally consistent.
        assert_eq!(sp.eps_order().unwrap(), merged_before.as_slice());
        assert_eq!(sp.greedy_order().unwrap(), greedy_before.as_slice());
        for (si, shard) in sp.shards.iter().enumerate() {
            let c = cache(shard);
            assert_eq!(c.eps_order.len(), shard.size);
            assert_eq!(c.greedy_order.len(), shard.size);
            assert!(c.eps_order.iter().all(|&m| sp.owner[m] as usize == si), "owner tracks moves");
        }
        // Rebuilding from scratch agrees with the repaired runs.
        let mut fresh = sp.clone();
        fresh.merged = None;
        for shard in &mut fresh.shards {
            shard.cache = None;
        }
        fresh.warm(&jurors, 1, None);
        for (a, b) in sp.shards.iter().zip(&fresh.shards) {
            assert_eq!(cache(a).eps_order, cache(b).eps_order);
            assert_eq!(cache(a).greedy_order, cache(b).greedy_order);
        }
        // Probes ride the repaired ladders and stay within tolerance.
        for n in [1usize, 15, 33, 45] {
            let (probed, _) = sp.jer_probe(n);
            assert!(
                (probed - direct_probe(&jurors, n)).abs() < crate::ladder::PROBE_REPAIR_TOL,
                "n={n}"
            );
        }
    }

    #[test]
    fn probe_matches_direct_jer_within_tolerance() {
        for k in [1usize, 7] {
            let jurors = pool(300);
            let mut sp = warmed(&jurors, k);
            for n in [1usize, 3, 63, 64, 65, 129, 299] {
                let (probed, _) = sp.jer_probe(n);
                let direct = direct_probe(&jurors, n);
                assert!((probed - direct).abs() < 1e-9, "k={k} n={n}: {probed} vs {direct}");
            }
        }
    }

    #[test]
    fn ladder_fallback_beyond_coverage() {
        use crate::ladder::LADDER_MAX;
        // A single huge shard: probes beyond LADDER_MAX take the batch
        // branch and must still agree.
        let jurors = pool(LADDER_MAX + 300);
        let mut sp = warmed(&jurors, 1);
        let n = LADDER_MAX + 201;
        assert!((sp.jer_probe(n).0 - direct_probe(&jurors, n)).abs() < 1e-9);
    }
}
