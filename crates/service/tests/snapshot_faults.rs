//! Fault-injection harness for the snapshot/restore subsystem.
//!
//! The contract under test (see `jury_service`'s *persistence
//! contract*): a service pointed at a snapshot directory answers
//! **bit-identically** to one that never saw a snapshot — whether the
//! snapshot is pristine (verified restore, counted in
//! `snapshot_restores`) or damaged in any way (counted rejection in
//! `snapshot_rejections`, silent fall back to the cold build). No
//! corruption may panic, error a registration, or change an answer.
//!
//! The matrix drives the real write path, then mutates the on-disk
//! bytes the way crashes and bit rot do: truncation at and inside every
//! section boundary, a flipped bit in every field class (key, sequence,
//! merged orders, cached answers, staircase, shard layer with its runs
//! and pmf ladders, checksums, magic), manifests swapped between pools,
//! a manifest doctored to claim a mutated pool's fingerprint over stale
//! bytes, version skew in both the manifest and the entry magic, and an
//! entry in the retired flat format.
//! Where a gate would be masked by an outer checksum, the harness
//! re-forges the outer layers (manifest whole-file checksum, section
//! checksum) with the exported [`snapshot_checksum`] so the inner
//! semantic gates are the ones that fire.

use jury_core::juror::{pool_from_rates_and_costs, Juror};
use jury_core::problem::Selection;
use jury_numeric::hash::splitmix64;
use jury_service::{
    snapshot_checksum, DecisionTask, JuryService, PoolId, ServiceConfig, ShardConfig,
};
use serde::{json, Serialize, Value};
use std::fs;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------
// Fixture plumbing
// ---------------------------------------------------------------------

/// A per-case scratch directory under the system temp root, removed on
/// drop (and pre-cleaned, in case a previous run died mid-case).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("jury-snapshot-faults-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Deterministic pool content: golden-ratio-spread error rates with
/// varied costs, so AltrM, PayM and the staircase all get real work.
fn pool(n: usize) -> Vec<Juror> {
    let pairs: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let x = (i as f64 * 0.618_033_988_749_894_9).fract();
            (0.02 + 0.9 * x, 0.05 + ((i * 7 + 3) % 11) as f64 / 11.0)
        })
        .collect();
    pool_from_rates_and_costs(&pairs).unwrap()
}

/// The default configuration: every pool has one shard.
fn flat_config() -> ServiceConfig {
    ServiceConfig::default()
}

fn sharded_config() -> ServiceConfig {
    ServiceConfig {
        shard: ShardConfig { threshold: 0, shards: 4, ..Default::default() },
        ..Default::default()
    }
}

fn with_snapshot(mut config: ServiceConfig, dir: &Path) -> ServiceConfig {
    config.snapshot_dir = Some(dir.to_path_buf());
    config
}

/// The comparable footprint of one solve: members plus the exact bits
/// of JER and cost (or the error's text). "Bit-identical" means these
/// are equal for the whole driven stream.
type Outcome = Result<(Vec<usize>, u64, u64), String>;

fn footprint(result: Result<Selection, impl std::fmt::Display>) -> Outcome {
    result.map(|s| (s.members, s.jer.to_bits(), s.total_cost.to_bits())).map_err(|e| e.to_string())
}

/// Drives a fixed task stream that populates every snapshot section:
/// the AltrM answer, the JER profile, the pmf ladder, and a staircase
/// with recorded replays (each budget solved twice). Registration goes
/// through `warm_pool` — the restore-on-register attach point.
fn drive(service: &mut JuryService, pool: PoolId) -> Vec<Outcome> {
    service.warm_pool(pool).unwrap();
    let mut out = Vec::new();
    out.push(footprint(service.solve(&DecisionTask::altruism(pool))));
    for budget in [0.4, 1.1, 2.7, 5.0] {
        for _ in 0..2 {
            out.push(footprint(service.solve(&DecisionTask::pay_as_you_go(pool, budget))));
        }
    }
    service.jer_profile(pool).unwrap();
    out.push(footprint(service.solve(&DecisionTask::altruism(pool))));
    out
}

/// A fresh never-snapshotted service over `jurors`: the control stream
/// every faulted restore must match bit-for-bit.
fn control(config: &ServiceConfig, jurors: &[Juror]) -> Vec<Outcome> {
    let mut service = JuryService::with_config(config.clone());
    let pool = service.create_pool(jurors.to_vec());
    drive(&mut service, pool)
}

/// Builds, drives and snapshots a service into `dir`, returning the
/// driven stream (the snapshot covers every artifact the drive built).
fn seed_snapshot(dir: &Path, config: &ServiceConfig, jurors: &[Juror]) -> Vec<Outcome> {
    let mut service = JuryService::with_config(config.clone());
    let pool = service.create_pool(jurors.to_vec());
    let out = drive(&mut service, pool);
    let report = service.snapshot(dir).unwrap();
    assert!(report.entries >= 1, "seed snapshot persisted nothing");
    out
}

/// The core fault assertion: a service pointed at the (damaged)
/// directory must answer exactly like the control, restore nothing,
/// and count at least one rejection.
fn assert_cold_fallback(
    dir: &Path,
    config: &ServiceConfig,
    jurors: &[Juror],
    control: &[Outcome],
    what: &str,
) {
    let mut service = JuryService::with_config(with_snapshot(config.clone(), dir));
    let pool = service.create_pool(jurors.to_vec());
    let out = drive(&mut service, pool);
    assert_eq!(out, control, "{what}: answers drifted from the never-snapshotted control");
    let stats = service.stats();
    assert_eq!(stats.snapshot_restores, 0, "{what}: a damaged snapshot must not restore");
    assert!(stats.snapshot_rejections >= 1, "{what}: the rejection must be counted");
}

// ---------------------------------------------------------------------
// On-disk surgery
// ---------------------------------------------------------------------

/// The highest-generation manifest in `dir` — the one a reader loads
/// first, and therefore the one every forgery must overwrite.
fn manifest_path(dir: &Path) -> PathBuf {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
        let generation = name
            .strip_prefix("manifest-")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|g| g.parse::<u64>().ok());
        if let Some(generation) = generation {
            if best.as_ref().is_none_or(|(b, _)| generation > *b) {
                best = Some((generation, path));
            }
        }
    }
    best.expect("no manifest in dir").1
}

/// The single `art-*.snap` entry file of a one-pool snapshot.
fn entry_file(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    assert_eq!(files.len(), 1, "expected exactly one entry file in {dir:?}");
    files.pop().unwrap()
}

/// Re-forges the manifest's per-entry `bytes`/`checksum` from whatever
/// is on disk right now, so mutations pass the whole-file gate and the
/// *inner* verification gates are the ones exercised.
fn reforge_manifest(dir: &Path) {
    let old = json::parse(&fs::read_to_string(manifest_path(dir)).unwrap()).unwrap();
    let mut entries = Vec::new();
    for entry in old.get("entries").unwrap().as_array().unwrap() {
        let file = entry.get("file").unwrap().as_str().unwrap().to_string();
        let bytes = fs::read(dir.join(&file)).unwrap();
        entries.push(reforged_entry(entry, file, &bytes));
    }
    write_manifest(dir, entries);
}

/// One manifest entry with `file` (re)assigned and `bytes`/`checksum`
/// recomputed from the actual file contents; identity fields (lanes,
/// len, layout, config) carried over from `from`.
fn reforged_entry(from: &Value, file: String, bytes: &[u8]) -> Value {
    let mut fields = vec![
        ("file", Value::String(file)),
        ("lanes", from.get("lanes").unwrap().clone()),
        ("len", from.get("len").unwrap().clone()),
        ("layout", from.get("layout").unwrap().clone()),
    ];
    if let Some(shards) = from.get("shards") {
        fields.push(("shards", shards.clone()));
    }
    fields.push(("config", from.get("config").unwrap().clone()));
    fields.push(("bytes", Value::String(format!("{:016x}", bytes.len()))));
    fields.push(("checksum", Value::String(format!("{:016x}", snapshot_checksum(bytes)))));
    Value::object(fields)
}

fn write_manifest(dir: &Path, entries: Vec<Value>) {
    let manifest = Value::object([
        ("format", Value::String("jury-snapshot".to_string())),
        ("version", 1u64.to_value()),
        ("entries", Value::Array(entries)),
    ]);
    fs::write(manifest_path(dir), json::to_string(&manifest)).unwrap();
}

/// One section of an entry file, by byte offsets into the file.
struct Section {
    tag: u32,
    /// Offset of the `[tag][len]` header.
    header: usize,
    /// Offset of the payload.
    payload: usize,
    len: usize,
    /// Offset of the trailing checksum.
    checksum: usize,
}

/// Walks the `[tag][len][payload][checksum]` stream after the magic —
/// the same framing the decoder parses, reimplemented independently so
/// the harness does not trust the code under test for its offsets.
fn sections_of(bytes: &[u8]) -> Vec<Section> {
    let mut off = 8;
    let mut out = Vec::new();
    loop {
        let tag = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap()) as usize;
        let payload = off + 12;
        let checksum = payload + len;
        out.push(Section { tag, header: off, payload, len, checksum });
        off = checksum + 8;
        if tag == 0 {
            assert_eq!(off, bytes.len(), "END section must land at end-of-file");
            return out;
        }
    }
}

/// Recomputes a section's trailing checksum after its payload was
/// mutated, so the semantic gates behind the checksum fire.
fn reseal_section(bytes: &mut [u8], section: &Section) {
    let sum = splitmix64(
        snapshot_checksum(&bytes[section.payload..section.payload + section.len])
            ^ u64::from(section.tag),
    );
    bytes[section.checksum..section.checksum + 8].copy_from_slice(&sum.to_le_bytes());
}

fn section_name(tag: u32) -> &'static str {
    match tag {
        0 => "END",
        1 => "KEY",
        2 => "SEQ",
        3 => "EPS_ORDER",
        4 => "GREEDY_ORDER",
        6 => "ALTR",
        7 => "PROFILE",
        9 => "STAIRCASE",
        10 => "SHARDS",
        _ => "UNKNOWN",
    }
}

// ---------------------------------------------------------------------
// The matrix
// ---------------------------------------------------------------------

/// Pristine snapshots restore: answers stay bit-identical to a cold
/// service while `snapshot_restores` proves the warm path was taken —
/// for both the flat and the sharded layout.
#[test]
fn pristine_snapshot_restores_bit_identically() {
    for (name, config) in [("flat", flat_config()), ("sharded", sharded_config())] {
        let tmp = TempDir::new(&format!("happy-{name}"));
        let jurors = pool(24);
        let cold = control(&config, &jurors);
        let seeded = seed_snapshot(tmp.path(), &config, &jurors);
        assert_eq!(seeded, cold, "{name}: the seeding run itself must match the control");

        let mut restored = JuryService::with_config(with_snapshot(config.clone(), tmp.path()));
        let pool_id = restored.create_pool(jurors.clone());
        let out = drive(&mut restored, pool_id);
        assert_eq!(out, cold, "{name}: restored answers must be bit-identical");
        let stats = restored.stats();
        assert!(stats.snapshot_restores >= 1, "{name}: restore must actually happen");
        assert_eq!(stats.snapshot_rejections, 0, "{name}: a pristine snapshot rejects nothing");
    }
}

/// A pool with more shards than jurors (empty shards) restores like any
/// other: the decoder bounds the shard count by the registering key, not
/// by the pool size.
#[test]
fn more_shards_than_jurors_restore() {
    let config = ServiceConfig {
        shard: ShardConfig { threshold: 0, shards: 16, ..Default::default() },
        ..Default::default()
    };
    let tmp = TempDir::new("sparse-shards");
    let jurors = pool(5);
    let cold = control(&config, &jurors);
    assert_eq!(seed_snapshot(tmp.path(), &config, &jurors), cold);
    let mut restored = JuryService::with_config(with_snapshot(config.clone(), tmp.path()));
    let pool_id = restored.create_pool(jurors.clone());
    assert_eq!(drive(&mut restored, pool_id), cold);
    let stats = restored.stats();
    assert_eq!((stats.snapshot_restores, stats.snapshot_rejections), (1, 0));
}

/// Content the snapshot never saw is a plain miss: no restore, but also
/// no counted rejection (nothing was promised).
#[test]
fn unknown_content_is_a_plain_miss_not_a_rejection() {
    let tmp = TempDir::new("plain-miss");
    let config = flat_config();
    seed_snapshot(tmp.path(), &config, &pool(24));

    let novel = pool(31);
    let cold = control(&config, &novel);
    let mut service = JuryService::with_config(with_snapshot(config.clone(), tmp.path()));
    let pool_id = service.create_pool(novel.clone());
    assert_eq!(drive(&mut service, pool_id), cold);
    let stats = service.stats();
    assert_eq!(stats.snapshot_restores, 0);
    assert_eq!(stats.snapshot_rejections, 0, "an honest miss is not a rejection");
}

/// Truncation at and inside every section boundary. With a stale
/// manifest the whole-file gate fires; with a re-forged manifest the
/// framing walk itself must reject the torn tail.
#[test]
fn truncation_at_every_section_boundary_falls_back_cold() {
    let tmp = TempDir::new("truncate");
    let config = flat_config();
    let jurors = pool(24);
    let cold = control(&config, &jurors);
    seed_snapshot(tmp.path(), &config, &jurors);
    let file = entry_file(tmp.path());
    let pristine = fs::read(&file).unwrap();

    // A crash torn mid-write with the *old* manifest still in place:
    // the manifest's length/checksum claim catches it.
    fs::write(&file, &pristine[..pristine.len() / 2]).unwrap();
    assert_cold_fallback(tmp.path(), &config, &jurors, &cold, "truncation, stale manifest");

    let mut cuts: Vec<(usize, String)> = Vec::new();
    for section in sections_of(&pristine) {
        let name = section_name(section.tag);
        cuts.push((section.header, format!("cut at {name} header")));
        cuts.push((section.payload, format!("cut at {name} payload start")));
        cuts.push((section.payload + section.len / 2, format!("cut mid-{name}")));
        cuts.push((section.checksum, format!("cut at {name} checksum")));
    }
    cuts.push((pristine.len() - 1, "cut one byte short of EOF".to_string()));
    cuts.push((4, "cut inside the magic".to_string()));
    for (at, what) in cuts {
        fs::write(&file, &pristine[..at]).unwrap();
        reforge_manifest(tmp.path());
        assert_cold_fallback(tmp.path(), &config, &jurors, &cold, &what);
    }

    // Restoring the pristine bytes heals the directory completely.
    fs::write(&file, &pristine).unwrap();
    reforge_manifest(tmp.path());
    let mut healed = JuryService::with_config(with_snapshot(config.clone(), tmp.path()));
    let pool_id = healed.create_pool(jurors.clone());
    assert_eq!(drive(&mut healed, pool_id), cold);
    assert!(healed.stats().snapshot_restores >= 1, "pristine bytes restore again");
}

/// One flipped bit per field class. Each section is hit twice: once
/// with only the manifest re-forged (the section checksum must fire)
/// and once with the section checksum also re-forged (the semantic
/// gate behind it — key equality, permutation, ε binding, pmf re-hash,
/// JSON validity, shard-owner binding — must fire).
#[test]
fn one_flipped_bit_per_field_class_falls_back_cold() {
    for (name, config) in [("flat", flat_config()), ("sharded", sharded_config())] {
        let tmp = TempDir::new(&format!("bitflip-{name}"));
        let jurors = pool(24);
        let cold = control(&config, &jurors);
        seed_snapshot(tmp.path(), &config, &jurors);
        let file = entry_file(tmp.path());
        let pristine = fs::read(&file).unwrap();

        for section in sections_of(&pristine) {
            let sect = section_name(section.tag);
            // Per-section flip target: an offset whose corruption a
            // semantic gate is *guaranteed* to catch once checksums are
            // re-forged (first key lane / first ε word / first order
            // index / leading JSON byte / the first shard-owner word, or
            // for one shard, whose owner vector is empty, the shard
            // count).
            let at = match sect {
                "END" => continue, // zero-length payload; framing covered by truncation
                "SHARDS" => section.payload + 8,
                _ => section.payload,
            };

            let mut flipped = pristine.clone();
            flipped[at] ^= 0x01;
            fs::write(&file, &flipped).unwrap();
            reforge_manifest(tmp.path());
            assert_cold_fallback(
                tmp.path(),
                &config,
                &jurors,
                &cold,
                &format!("{name}: bit flip in {sect}, section checksum stale"),
            );

            reseal_section(&mut flipped, &section);
            fs::write(&file, &flipped).unwrap();
            reforge_manifest(tmp.path());
            assert_cold_fallback(
                tmp.path(),
                &config,
                &jurors,
                &cold,
                &format!("{name}: bit flip in {sect}, semantic gate"),
            );
        }

        // A flipped bit in a section *checksum* itself.
        let some = &sections_of(&pristine)[1];
        let mut flipped = pristine.clone();
        flipped[some.checksum] ^= 0x01;
        fs::write(&file, &flipped).unwrap();
        reforge_manifest(tmp.path());
        assert_cold_fallback(tmp.path(), &config, &jurors, &cold, "flipped section checksum");

        // A flipped bit in the magic / format version.
        let mut flipped = pristine.clone();
        flipped[7] ^= 0x01; // b"JRYSNP02" -> b"JRYSNP03": version skew
        fs::write(&file, &flipped).unwrap();
        reforge_manifest(tmp.path());
        assert_cold_fallback(tmp.path(), &config, &jurors, &cold, "entry-file version skew");
    }
}

/// A JER profile entry carrying an impossible value — NaN, negative or
/// above one — with every checksum re-forged around it: the profile's
/// value gate must refuse the entry at verification, not restore it.
#[test]
fn impossible_profile_values_fall_back_cold() {
    let tmp = TempDir::new("profile-values");
    let config = flat_config();
    let jurors = pool(24);
    let cold = control(&config, &jurors);
    seed_snapshot(tmp.path(), &config, &jurors);
    let file = entry_file(tmp.path());
    let pristine = fs::read(&file).unwrap();
    let sections = sections_of(&pristine);
    let profile = sections.iter().find(|s| s.tag == 7).expect("seeded entry has a profile");
    assert!(profile.len >= 32, "the profile must hold at least two entries");

    for bad in [f64::NAN, -0.25, 1.5, f64::INFINITY] {
        // Entry 1 is `(3, JER)`: its value word sits at payload + 24.
        let at = profile.payload + 24;
        let mut forged = pristine.clone();
        forged[at..at + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
        reseal_section(&mut forged, profile);
        fs::write(&file, &forged).unwrap();
        reforge_manifest(tmp.path());
        assert_cold_fallback(tmp.path(), &config, &jurors, &cold, &format!("profile JER {bad}"));
    }
}

/// Manifests swapped between two pools: each entry's identity fields
/// now point at the *other* pool's bytes. The whole-file gate passes by
/// construction (lengths and checksums re-forged), so the embedded-key
/// cross-check is what must refuse the forgery — for both pools.
#[test]
fn swapped_manifest_entries_fall_back_cold() {
    let tmp = TempDir::new("swap");
    let config = flat_config();
    let jurors_a = pool(24);
    let jurors_b = pool(25);
    let cold_a = control(&config, &jurors_a);
    let cold_b = control(&config, &jurors_b);

    // One service, two pools, one snapshot with two entries.
    let mut seeder = JuryService::with_config(config.clone());
    let pa = seeder.create_pool(jurors_a.clone());
    let pb = seeder.create_pool(jurors_b.clone());
    drive(&mut seeder, pa);
    drive(&mut seeder, pb);
    let report = seeder.snapshot(tmp.path()).unwrap();
    assert_eq!(report.entries, 2, "two distinct pools, two entries");

    let old = json::parse(&fs::read_to_string(manifest_path(tmp.path())).unwrap()).unwrap();
    let entries = old.get("entries").unwrap().as_array().unwrap();
    assert_eq!(entries.len(), 2);
    let file_0 = entries[0].get("file").unwrap().as_str().unwrap().to_string();
    let file_1 = entries[1].get("file").unwrap().as_str().unwrap().to_string();
    let bytes_0 = fs::read(tmp.path().join(&file_0)).unwrap();
    let bytes_1 = fs::read(tmp.path().join(&file_1)).unwrap();
    // Entry 0's identity now claims entry 1's file and vice versa, with
    // lengths and checksums consistent with the swapped files.
    write_manifest(
        tmp.path(),
        vec![
            reforged_entry(&entries[0], file_1, &bytes_1),
            reforged_entry(&entries[1], file_0, &bytes_0),
        ],
    );

    assert_cold_fallback(tmp.path(), &config, &jurors_a, &cold_a, "swapped manifest, pool A");
    assert_cold_fallback(tmp.path(), &config, &jurors_b, &cold_b, "swapped manifest, pool B");
}

/// A snapshot of a pool's *past* doctored to claim its mutated present:
/// the manifest advertises the post-mutation fingerprint over the
/// pre-mutation bytes. The embedded key refuses the replay.
#[test]
fn mutated_past_replay_falls_back_cold() {
    let tmp = TempDir::new("mutated-past");
    let config = flat_config();
    let jurors = pool(24);

    let mut service = JuryService::with_config(config.clone());
    let pool_id = service.create_pool(jurors.clone());
    drive(&mut service, pool_id);
    service.snapshot(tmp.path()).unwrap();

    // Mutate the pool past the snapshot, then capture its new content
    // and fingerprint — the "present" the stale bytes will impersonate.
    let extra = pool_from_rates_and_costs(&[(0.345, 0.21)]).unwrap().pop().unwrap();
    service.insert_juror(pool_id, extra).unwrap();
    let mutated: Vec<Juror> = service.pool(pool_id).unwrap().to_vec();
    let fp = service.fingerprint(pool_id).unwrap();
    let cold = control(&config, &mutated);

    let old = json::parse(&fs::read_to_string(manifest_path(tmp.path())).unwrap()).unwrap();
    let entry = &old.get("entries").unwrap().as_array().unwrap()[0];
    let file = entry.get("file").unwrap().as_str().unwrap().to_string();
    let bytes = fs::read(tmp.path().join(&file)).unwrap();
    let mut forged = reforged_entry(entry, file, &bytes);
    // Overwrite the identity fields with the mutated pool's.
    let fields = vec![
        ("file", forged.get("file").unwrap().clone()),
        (
            "lanes",
            Value::Array(vec![
                Value::String(format!("{:016x}", fp.lanes[0])),
                Value::String(format!("{:016x}", fp.lanes[1])),
            ]),
        ),
        ("len", Value::String(format!("{:016x}", fp.len))),
        ("layout", forged.get("layout").unwrap().clone()),
        ("config", forged.get("config").unwrap().clone()),
        ("bytes", forged.get("bytes").unwrap().clone()),
        ("checksum", forged.get("checksum").unwrap().clone()),
    ];
    forged = Value::object(fields);
    write_manifest(tmp.path(), vec![forged]);

    assert_cold_fallback(tmp.path(), &config, &mutated, &cold, "mutated-past replay");
}

/// Manifest-level damage: version skew poisons the catalog (every
/// attempt is a counted rejection), corrupt JSON likewise, and a
/// manifest entry whose layout/config no longer matches the service's
/// registration is config drift — also a counted rejection.
#[test]
fn manifest_skew_and_config_drift_fall_back_cold() {
    let config = flat_config();
    let jurors = pool(24);
    let cold = control(&config, &jurors);

    // Version skew.
    let tmp = TempDir::new("manifest-version");
    seed_snapshot(tmp.path(), &config, &jurors);
    let old = json::parse(&fs::read_to_string(manifest_path(tmp.path())).unwrap()).unwrap();
    let manifest = Value::object([
        ("format", Value::String("jury-snapshot".to_string())),
        ("version", 2u64.to_value()),
        ("entries", old.get("entries").unwrap().clone()),
    ]);
    fs::write(manifest_path(tmp.path()), json::to_string(&manifest)).unwrap();
    assert_cold_fallback(tmp.path(), &config, &jurors, &cold, "manifest version skew");

    // Corrupt JSON.
    let tmp = TempDir::new("manifest-garbage");
    seed_snapshot(tmp.path(), &config, &jurors);
    fs::write(manifest_path(tmp.path()), b"{this is not a manifest").unwrap();
    assert_cold_fallback(tmp.path(), &config, &jurors, &cold, "corrupt manifest JSON");

    // Config drift: the snapshot promised this content with one shard;
    // a service registering the same content with four must get a
    // counted rejection (promised content it cannot deliver), then
    // build cold.
    let tmp = TempDir::new("config-drift");
    seed_snapshot(tmp.path(), &config, &jurors);
    let sharded = sharded_config();
    let cold_sharded = control(&sharded, &jurors);
    assert_cold_fallback(tmp.path(), &sharded, &jurors, &cold_sharded, "shard-count drift");

    // A missing manifest over intact entry files is an empty catalog:
    // no restore, no rejection — nothing was promised.
    let tmp = TempDir::new("missing-manifest");
    seed_snapshot(tmp.path(), &config, &jurors);
    fs::remove_file(manifest_path(tmp.path())).unwrap();
    let mut service = JuryService::with_config(with_snapshot(config.clone(), tmp.path()));
    let pool_id = service.create_pool(jurors.clone());
    assert_eq!(drive(&mut service, pool_id), cold);
    let stats = service.stats();
    assert_eq!(stats.snapshot_restores, 0);
    assert_eq!(stats.snapshot_rejections, 0, "an absent manifest promises nothing");
}

/// The seeded fixtures must actually contain every section class the
/// bit-flip matrix claims to cover — otherwise the matrix is vacuous.
#[test]
fn seeded_snapshots_cover_every_section_class() {
    // One shard: its runs are the global orders, stored once in SHARDS.
    let tmp = TempDir::new("coverage-flat");
    seed_snapshot(tmp.path(), &flat_config(), &pool(24));
    let tags: Vec<u32> =
        sections_of(&fs::read(entry_file(tmp.path())).unwrap()).iter().map(|s| s.tag).collect();
    for required in [1u32, 2, 6, 7, 9, 10] {
        assert!(tags.contains(&required), "one-shard entry lacks {}", section_name(required));
    }
    assert!(!tags.contains(&3) && !tags.contains(&4), "one shard stores no merged orders");

    // K shards add the merged orders.
    let tmp = TempDir::new("coverage-sharded");
    seed_snapshot(tmp.path(), &sharded_config(), &pool(24));
    let tags: Vec<u32> =
        sections_of(&fs::read(entry_file(tmp.path())).unwrap()).iter().map(|s| s.tag).collect();
    for required in [1u32, 2, 3, 4, 6, 7, 9, 10] {
        assert!(tags.contains(&required), "sharded entry lacks {}", section_name(required));
    }
}

/// The pmf ladder inside the one-shard SHARDS section: its laid flag and
/// a checkpoint's stored pmf hash are each caught by a semantic gate
/// once the section checksum is re-forged. The pool is long enough for
/// the ladder (laid by the drive's profile read) to hold checkpoints.
#[test]
fn flipped_ladder_bytes_fall_back_cold() {
    let tmp = TempDir::new("ladder-flip");
    let config = flat_config();
    let jurors = pool(150);
    let cold = control(&config, &jurors);
    seed_snapshot(tmp.path(), &config, &jurors);
    let file = entry_file(tmp.path());
    let pristine = fs::read(&file).unwrap();
    let shards = sections_of(&pristine).into_iter().find(|s| s.tag == 10).unwrap();
    // owner_len, shard count, run size, two runs of 150 indices.
    let flag = shards.payload + 24 + 2 * 8 * jurors.len();
    assert_eq!(pristine[flag], 1, "the profile read laid the ladder");
    let checkpoints = u64::from_le_bytes(pristine[flag + 1..flag + 9].try_into().unwrap());
    assert_eq!(checkpoints, 2, "150 jurors hold two checkpoints");
    // The flag, and the first checkpoint's stored hash (after its length).
    for (at, what) in [(flag, "ladder flag"), (flag + 17, "checkpoint pmf hash")] {
        let mut flipped = pristine.clone();
        flipped[at] ^= 0x01;
        reseal_section(&mut flipped, &shards);
        fs::write(&file, &flipped).unwrap();
        reforge_manifest(tmp.path());
        assert_cold_fallback(tmp.path(), &config, &jurors, &cold, what);
    }
}

/// An entry in the retired `JRYSNP01` flat format — magic, a KEY with
/// layout byte 0, and the separate order, sorted-ε and staircase
/// sections the flat layout wrote — is refused as one counted rejection
/// and the pool builds cold, whether the manifest names it under the
/// current shard count or still says `flat`.
#[test]
fn retired_flat_format_entry_is_refused_cold() {
    let config = flat_config();
    let jurors = pool(24);
    let cold = control(&config, &jurors);
    for manifest_layout in ["sharded", "flat"] {
        let tmp = TempDir::new(&format!("retired-flat-{manifest_layout}"));
        seed_snapshot(tmp.path(), &config, &jurors);
        let file = entry_file(tmp.path());
        let current = fs::read(&file).unwrap();
        let sections = sections_of(&current);
        let payload = |tag: u32| {
            let s = sections.iter().find(|s| s.tag == tag).unwrap();
            current[s.payload..s.payload + s.len].to_vec()
        };
        // KEY: lanes and length as today, then layout byte 0 (flat) and
        // the config word — the flat key carried no shard count.
        let key = payload(1);
        let mut flat_key = key[..24].to_vec();
        flat_key.push(0);
        flat_key.extend_from_slice(&key[32..40]);
        let mut eps_order = Vec::new();
        jury_core::solver::sorted_order_into(&jurors, &mut eps_order);
        let mut greedy_order = Vec::new();
        jury_core::paym::PayAlg::greedy_order_into(&jurors, &mut greedy_order);
        let words = |values: &mut dyn Iterator<Item = u64>| {
            values.flat_map(u64::to_le_bytes).collect::<Vec<u8>>()
        };
        let mut retired = b"JRYSNP01".to_vec();
        for (tag, body) in [
            (1u32, flat_key),
            (2, payload(2)),
            (3, words(&mut eps_order.iter().map(|&i| i as u64))),
            (4, words(&mut greedy_order.iter().map(|&i| i as u64))),
            (5, words(&mut eps_order.iter().map(|&i| jurors[i].epsilon().to_bits()))),
            (9, payload(9)),
            (0, Vec::new()),
        ] {
            retired.extend_from_slice(&tag.to_le_bytes());
            retired.extend_from_slice(&(body.len() as u64).to_le_bytes());
            let sum = splitmix64(snapshot_checksum(&body) ^ u64::from(tag));
            retired.extend_from_slice(&body);
            retired.extend_from_slice(&sum.to_le_bytes());
        }
        fs::write(&file, &retired).unwrap();
        reforge_manifest(tmp.path());
        if manifest_layout == "flat" {
            let old = json::parse(&fs::read_to_string(manifest_path(tmp.path())).unwrap()).unwrap();
            let entry = &old.get("entries").unwrap().as_array().unwrap()[0];
            let flat_entry = Value::object([
                ("file", entry.get("file").unwrap().clone()),
                ("lanes", entry.get("lanes").unwrap().clone()),
                ("len", entry.get("len").unwrap().clone()),
                ("layout", Value::String("flat".to_string())),
                ("config", entry.get("config").unwrap().clone()),
                ("bytes", entry.get("bytes").unwrap().clone()),
                ("checksum", entry.get("checksum").unwrap().clone()),
            ]);
            write_manifest(tmp.path(), vec![flat_entry]);
        }
        let what = format!("retired flat entry, manifest layout {manifest_layout}");
        assert_cold_fallback(tmp.path(), &config, &jurors, &cold, &what);
        let mut service = JuryService::with_config(with_snapshot(config.clone(), tmp.path()));
        let pool_id = service.create_pool(jurors.clone());
        service.warm_pool(pool_id).unwrap();
        assert_eq!(service.stats().snapshot_rejections, 1, "{what}: exactly one rejection");
    }
}
