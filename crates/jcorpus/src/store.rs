//! The on-disk corpus store.
//!
//! Layout of a store directory:
//!
//! ```text
//! DIR/
//!   manifest.jsonl     header line + one line per entry (id, name,
//!                      fingerprint, source hash, provenance, parent,
//!                      stats) or tombstone (id, name, fingerprint)
//!   quarantine.jsonl   one line per quarantined (seed, mutator) pair;
//!                      "mutator": null blocks the whole seed
//!   entries/<id>.java  pretty-printed mjava source, one file per entry
//!   .lock              advisory lockfile, present only during a save
//! ```
//!
//! The store is loaded fully into memory on [`Store::open`]; all mutation
//! is in-memory until [`Store::save`], which rewrites the manifest and
//! quarantine atomically (tmp file + rename). A campaign that dies before
//! its final flush therefore leaves the store exactly as it found it, and
//! a journal-based resume can replay onto the store idempotently: admits
//! dedup by fingerprint and stats are written as absolute values.
//!
//! Saves take the store lock ([`crate::StoreLock`]) and first fold in
//! whatever concurrent campaigns flushed since this store was opened:
//! quarantine pairs are set-unioned, and entries/tombstones with unknown
//! fingerprints are adopted (under fresh ids, so id assignment races
//! cannot alias two different programs). Stats of entries shared with a
//! concurrent campaign are last-writer-wins — acceptable because stats
//! only steer scheduling heuristics.
//!
//! Entries GC'd by [`Store::gc`] leave a manifest **tombstone** (id, name,
//! fingerprint, no source file): resuming a journal recorded before the
//! GC still resolves the entry's name (stats flushes become no-ops and
//! re-promotions dedup against the tombstone instead of resurrecting the
//! entry).
//!
//! # Sharded layout
//!
//! A store can alternatively be **sharded** for fleet operation, where
//! many concurrent tenants would otherwise serialize on the single
//! manifest lock and every flush rewrites every entry:
//!
//! ```text
//! DIR/
//!   shards.json        layout marker: {"type":"jcorpus-shards",
//!                      "version":1,"shards":N}
//!   shards/00/         one flat-format sub-store per shard:
//!     manifest.jsonl   manifest of the entries whose fingerprint maps
//!     entries/         here (shard = fingerprint mod N), own .lock
//!   shards/01/ ...
//!   quarantine.jsonl   stays top-level (cross-shard by nature), guarded
//!   .lock              by the top-level lock
//! ```
//!
//! Entry ids are unique *per shard* (they only key source files inside
//! one shard directory); names remain the globally unique identity.
//! Saves rewrite only **dirty** shards — the shards whose entries were
//! admitted, re-statted, or GC'd since open — each under its own lock,
//! in ascending shard order. A flush that touched one shard of a large
//! store therefore costs one small manifest rewrite instead of the whole
//! corpus, and two tenants flushing disjoint shards do not contend at
//! all. Flat stores are untouched by any of this: layout is detected at
//! open and the flat code path is byte-identical to what it always was.
//! [`shard_store`] migrates a flat store in place.

use crate::fingerprint::{fingerprint_hex, parse_fingerprint, source_hash};
use crate::lock::{StoreLock, DEFAULT_LOCK_TIMEOUT};
use crate::schedule::energy;
use crate::vfs::{self, Vfs};
use jtelemetry::schema::{escape_json, parse_json, req_f64, req_str, req_u64, Json};
use mjava::Program;
use std::collections::BTreeSet;
#[cfg(test)]
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Where a corpus entry came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// One of the handcrafted built-in seeds.
    Builtin,
    /// Produced by the deterministic seed generator.
    Generated,
    /// Imported from a directory of `.java` sources.
    Imported,
    /// A jreduce-minimized mutant promoted by a campaign.
    Promoted,
}

impl Provenance {
    /// Manifest spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Provenance::Builtin => "builtin",
            Provenance::Generated => "generated",
            Provenance::Imported => "imported",
            Provenance::Promoted => "promoted",
        }
    }

    fn from_str(s: &str) -> Result<Provenance, String> {
        match s {
            "builtin" => Ok(Provenance::Builtin),
            "generated" => Ok(Provenance::Generated),
            "imported" => Ok(Provenance::Imported),
            "promoted" => Ok(Provenance::Promoted),
            other => Err(format!("unknown provenance {other:?}")),
        }
    }
}

/// Per-entry scheduling statistics, persisted in the manifest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EntryStats {
    /// How many rounds have fuzzed this entry.
    pub schedules: u64,
    /// Sum of final OBV deltas those rounds produced.
    pub yield_sum: f64,
    /// Rounds that ended in a contained fault.
    pub faults: u64,
    /// Bugs (crashes or miscompiles) those rounds reported.
    pub bugs: u64,
}

/// One corpus entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Stable store-assigned id (`c0001`, ...); names the source file.
    pub id: String,
    /// Unique human-facing seed name used by campaigns and journals.
    pub name: String,
    /// Behaviour fingerprint ([`crate::fingerprint`]).
    pub fingerprint: u64,
    /// FNV-1a over the pretty-printed source — the memoization key that
    /// lets imports skip re-executing the reference JVM for unchanged
    /// programs ([`Store::memoized_fingerprint`]).
    pub source_hash: u64,
    /// Where the entry came from.
    pub provenance: Provenance,
    /// For promoted entries, the seed whose fuzz run produced them.
    pub parent: Option<String>,
    /// Scheduling statistics.
    pub stats: EntryStats,
    /// Consecutive campaigns this entry's energy ended clamped at the
    /// scheduler floor — the GC criterion ([`Store::gc`]).
    pub floor_streak: u64,
}

/// A GC'd entry's manifest remnant: enough to resolve names and dedup
/// fingerprints for journals recorded before the GC, without a program.
#[derive(Debug, Clone, PartialEq)]
pub struct Tombstone {
    /// The id the entry held while alive.
    pub id: String,
    /// The name the entry held while alive (still reserved).
    pub name: String,
    /// The entry's behaviour fingerprint (still dedups admissions).
    pub fingerprint: u64,
}

/// The outcome of [`Store::admit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// The program was new; admitted under this (possibly uniquified) name.
    Fresh(String),
    /// An entry (or tombstone) with the same fingerprint already exists
    /// under this name.
    Duplicate(String),
}

/// An in-memory view of a corpus directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    fs: Arc<dyn Vfs>,
    entries: Vec<Entry>,
    programs: Vec<Program>, // parallel to `entries`
    tombstones: Vec<Tombstone>,
    quarantine: Vec<(String, Option<String>)>,
    /// `Some(n)` for the sharded layout (n shard sub-stores), `None` flat.
    shards: Option<usize>,
    /// Shards whose entries changed since open / the last save; the only
    /// shards a sharded save rewrites.
    dirty_shards: BTreeSet<usize>,
}

pub(crate) const MANIFEST: &str = "manifest.jsonl";
pub(crate) const QUARANTINE: &str = "quarantine.jsonl";
pub(crate) const ENTRIES_DIR: &str = "entries";
pub(crate) const SHARDS_MARKER: &str = "shards.json";
pub(crate) const SHARDS_DIR: &str = "shards";

/// Highest supported shard count (two-digit shard directory names).
pub const MAX_SHARDS: usize = 99;

/// v2: per-entry `source_hash` (fingerprint memoization), `floor_streak`
/// (GC bookkeeping), and tombstone lines. v1 manifests are still read
/// (hashes recomputed on open, streaks start at 0) and rewritten as v2 on
/// the next save.
const STORE_VERSION: u64 = 2;

impl Store {
    /// Creates an empty store at `dir`. Fails if a manifest already exists.
    pub fn init(dir: &Path) -> Result<Store, String> {
        Store::init_with(dir, vfs::real())
    }

    /// [`Store::init`] with all I/O routed through `fs` (chaos injection
    /// in tests, real fsyncs in production).
    pub fn init_with(dir: &Path, fs: Arc<dyn Vfs>) -> Result<Store, String> {
        let manifest = dir.join(MANIFEST);
        if fs.exists(&manifest) || fs.exists(&dir.join(SHARDS_MARKER)) {
            return Err(format!("corpus store already exists at {}", dir.display()));
        }
        fs.create_dir_all(&dir.join(ENTRIES_DIR))
            .map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut store = Store {
            dir: dir.to_path_buf(),
            fs,
            entries: Vec::new(),
            programs: Vec::new(),
            tombstones: Vec::new(),
            quarantine: Vec::new(),
            shards: None,
            dirty_shards: BTreeSet::new(),
        };
        store.save()?;
        Ok(store)
    }

    /// Creates an empty **sharded** store at `dir` with `shards` shard
    /// sub-stores. Fails if any store (flat or sharded) already exists.
    pub fn init_sharded(dir: &Path, shards: usize) -> Result<Store, String> {
        Store::init_sharded_with(dir, shards, vfs::real())
    }

    /// [`Store::init_sharded`] with all I/O routed through `fs`.
    pub fn init_sharded_with(dir: &Path, shards: usize, fs: Arc<dyn Vfs>) -> Result<Store, String> {
        check_shard_count(shards)?;
        if fs.exists(&dir.join(MANIFEST)) || fs.exists(&dir.join(SHARDS_MARKER)) {
            return Err(format!("corpus store already exists at {}", dir.display()));
        }
        fs.create_dir_all(dir)
            .map_err(|e| format!("create {}: {e}", dir.display()))?;
        vfs::write_atomic(
            fs.as_ref(),
            &dir.join(SHARDS_MARKER),
            &shards_marker(shards),
        )?;
        let mut store = Store {
            dir: dir.to_path_buf(),
            fs,
            entries: Vec::new(),
            programs: Vec::new(),
            tombstones: Vec::new(),
            quarantine: Vec::new(),
            shards: Some(shards),
            // Every shard starts dirty so the first save materializes
            // every shard manifest; open requires them all.
            dirty_shards: (0..shards).collect(),
        };
        store.save()?;
        Ok(store)
    }

    /// Loads an existing store from `dir`.
    ///
    /// Recovery semantics: stale `*.tmp` siblings left by a crashed save
    /// are swept (when no other writer holds the store lock), and a torn
    /// **final** line of the manifest or quarantine — the footprint of a
    /// crash mid-write on a non-atomic filesystem — is dropped rather
    /// than fatal. Corruption anywhere else still fails the open;
    /// `corpus fsck` reports and repairs it explicitly.
    pub fn open(dir: &Path) -> Result<Store, String> {
        Store::open_with(dir, vfs::real())
    }

    /// [`Store::open`] with all I/O routed through `fs`.
    pub fn open_with(dir: &Path, fs: Arc<dyn Vfs>) -> Result<Store, String> {
        if fs.exists(&dir.join(SHARDS_MARKER)) {
            return Store::open_sharded(dir, fs);
        }
        // Sweep stale tmp files only with the store lock held: a live
        // writer's tmp siblings are about to be renamed, not stale. A
        // held lock skips the sweep (zero-wait probe), never the open.
        if let Ok(_lock) = StoreLock::acquire_with_vfs(dir, Duration::ZERO, fs.clone()) {
            sweep_stale_tmp(fs.as_ref(), dir);
        }
        let (entries, programs, tombstones) = read_store_dir(fs.as_ref(), dir)?;
        let quarantine = read_quarantine(fs.as_ref(), &dir.join(QUARANTINE))?;
        Ok(Store {
            dir: dir.to_path_buf(),
            fs,
            entries,
            programs,
            tombstones,
            quarantine,
            shards: None,
            dirty_shards: BTreeSet::new(),
        })
    }

    /// Loads a sharded store: each shard sub-store is read like a flat
    /// store (own lock probe, own tmp sweep, own torn-tail tolerance),
    /// in ascending shard order. Names that collide across shards — the
    /// footprint of two tenants admitting the same hint into different
    /// shards concurrently — are uniquified deterministically and the
    /// renamed shard marked dirty so the next save persists the repair.
    fn open_sharded(dir: &Path, fs: Arc<dyn Vfs>) -> Result<Store, String> {
        let marker_path = dir.join(SHARDS_MARKER);
        let text = fs
            .read_to_string(&marker_path)
            .map_err(|e| format!("read {}: {e}", marker_path.display()))?;
        let shards =
            parse_shards_marker(&text).map_err(|e| format!("{}: {e}", marker_path.display()))?;
        if let Ok(_lock) = StoreLock::acquire_with_vfs(dir, Duration::ZERO, fs.clone()) {
            sweep_stale_tmp(fs.as_ref(), dir);
        }
        let mut entries = Vec::new();
        let mut programs = Vec::new();
        let mut tombstones = Vec::new();
        let mut dirty_shards = BTreeSet::new();
        for shard in 0..shards {
            let sdir = Store::shard_dir(dir, shard);
            if let Ok(_lock) = StoreLock::acquire_with_vfs(&sdir, Duration::ZERO, fs.clone()) {
                sweep_stale_tmp(fs.as_ref(), &sdir);
            }
            let (mut se, mut sp, mut st) = read_store_dir(fs.as_ref(), &sdir)?;
            let taken = |name: &str, entries: &[Entry], tombstones: &[Tombstone]| {
                entries.iter().any(|e| e.name == name)
                    || tombstones.iter().any(|t: &Tombstone| t.name == name)
            };
            for e in &mut se {
                if taken(&e.name, &entries, &tombstones) {
                    let mut suffix = 2;
                    let mut name = format!("{}_{suffix}", e.name);
                    while taken(&name, &entries, &tombstones) {
                        suffix += 1;
                        name = format!("{}_{suffix}", e.name);
                    }
                    e.name = name;
                    dirty_shards.insert(shard);
                }
            }
            entries.append(&mut se);
            programs.append(&mut sp);
            tombstones.append(&mut st);
        }
        let quarantine = read_quarantine(fs.as_ref(), &dir.join(QUARANTINE))?;
        Ok(Store {
            dir: dir.to_path_buf(),
            fs,
            entries,
            programs,
            tombstones,
            quarantine,
            shards: Some(shards),
            dirty_shards,
        })
    }

    /// Shard count of a sharded store; `None` for the flat layout.
    pub fn shards(&self) -> Option<usize> {
        self.shards
    }

    /// The sub-directory holding one shard of a sharded store.
    pub(crate) fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
        dir.join(SHARDS_DIR).join(format!("{shard:02}"))
    }

    /// The shard a fingerprint maps to, or `None` for flat stores.
    fn shard_of(&self, fingerprint: u64) -> Option<usize> {
        self.shards.map(|n| (fingerprint % n as u64) as usize)
    }

    /// Marks the owning shard of `fingerprint` dirty (no-op when flat).
    fn mark_dirty(&mut self, fingerprint: u64) {
        if let Some(shard) = self.shard_of(fingerprint) {
            self.dirty_shards.insert(shard);
        }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// All live entries, in admission order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Tombstones of GC'd entries, in GC order.
    pub fn tombstones(&self) -> &[Tombstone] {
        &self.tombstones
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The program behind a named live entry.
    pub fn program(&self, name: &str) -> Option<&Program> {
        self.entries
            .iter()
            .position(|e| e.name == name)
            .map(|i| &self.programs[i])
    }

    /// The memoized behaviour fingerprint for a program whose printed
    /// source matches an existing entry's — the import hot path that
    /// skips re-executing the reference JVM.
    pub fn memoized_fingerprint(&self, program: &Program) -> Option<u64> {
        let hash = source_hash(program);
        self.entries
            .iter()
            .find(|e| e.source_hash == hash)
            .map(|e| e.fingerprint)
    }

    /// Admits a program under `name_hint`, deduping by fingerprint.
    ///
    /// If an entry (or tombstone) with the same fingerprint exists the
    /// store is left untouched and the existing name is returned; this
    /// makes re-imports and replayed promotions idempotent, and keeps
    /// GC'd behaviours from being resurrected by a resume. Name
    /// collisions with distinct fingerprints are resolved by a
    /// deterministic `_2`, `_3`, ... suffix.
    pub fn admit(
        &mut self,
        name_hint: &str,
        program: &Program,
        fingerprint: u64,
        provenance: Provenance,
        parent: Option<String>,
    ) -> Admission {
        if let Some(existing) = self.entries.iter().find(|e| e.fingerprint == fingerprint) {
            return Admission::Duplicate(existing.name.clone());
        }
        if let Some(tomb) = self
            .tombstones
            .iter()
            .find(|t| t.fingerprint == fingerprint)
        {
            return Admission::Duplicate(tomb.name.clone());
        }
        let name = self.unique_name(name_hint);
        let id = match self.shard_of(fingerprint) {
            Some(shard) => format!("c{:04}", self.next_id_in(shard)),
            None => format!("c{:04}", self.next_id()),
        };
        self.mark_dirty(fingerprint);
        self.entries.push(Entry {
            id,
            name: name.clone(),
            fingerprint,
            source_hash: source_hash(program),
            provenance,
            parent,
            stats: EntryStats::default(),
            floor_streak: 0,
        });
        self.programs.push(program.clone());
        Admission::Fresh(name)
    }

    fn unique_name(&self, name_hint: &str) -> String {
        let taken = |name: &str| {
            self.entries.iter().any(|e| e.name == name)
                || self.tombstones.iter().any(|t| t.name == name)
        };
        let mut name = name_hint.to_string();
        let mut suffix = 2;
        while taken(&name) {
            name = format!("{name_hint}_{suffix}");
            suffix += 1;
        }
        name
    }

    /// Overwrites the stats of a named entry (absolute values, so flushing
    /// the same campaign twice — live then via resume — is idempotent).
    /// A tombstoned name is a silent no-op: resumed journals may flush
    /// stats for entries GC'd since they were recorded.
    pub fn set_stats(&mut self, name: &str, stats: EntryStats) -> Result<(), String> {
        match self.entries.iter_mut().find(|e| e.name == name) {
            Some(entry) => {
                entry.stats = stats;
                let fingerprint = entry.fingerprint;
                self.mark_dirty(fingerprint);
                Ok(())
            }
            None if self.tombstones.iter().any(|t| t.name == name) => Ok(()),
            None => Err(format!("no corpus entry named {name:?}")),
        }
    }

    /// Overwrites the floor-streak counter of a named entry (absolute,
    /// idempotent like [`Store::set_stats`]; tombstoned names no-op).
    pub fn set_floor_streak(&mut self, name: &str, streak: u64) -> Result<(), String> {
        match self.entries.iter_mut().find(|e| e.name == name) {
            Some(entry) => {
                entry.floor_streak = streak;
                let fingerprint = entry.fingerprint;
                self.mark_dirty(fingerprint);
                Ok(())
            }
            None if self.tombstones.iter().any(|t| t.name == name) => Ok(()),
            None => Err(format!("no corpus entry named {name:?}")),
        }
    }

    /// Drops every scheduled entry whose energy has sat at the scheduler
    /// floor for at least `streak` consecutive campaigns, leaving a
    /// manifest tombstone per dropped entry. Returns the dropped names.
    /// Never-scheduled entries are kept regardless (they have not had a
    /// chance to prove themselves).
    pub fn gc(&mut self, streak: u64) -> Vec<String> {
        let mut dropped = Vec::new();
        let mut i = 0;
        while i < self.entries.len() {
            let e = &self.entries[i];
            if e.stats.schedules > 0 && e.floor_streak >= streak {
                let entry = self.entries.remove(i);
                self.programs.remove(i);
                self.mark_dirty(entry.fingerprint);
                // The source file is deleted by the next save(), after the
                // manifest rename — a crash before then leaves the store
                // fully consistent under the old manifest.
                self.tombstones.push(Tombstone {
                    id: entry.id,
                    name: entry.name.clone(),
                    fingerprint: entry.fingerprint,
                });
                dropped.push(entry.name);
            } else {
                i += 1;
            }
        }
        dropped
    }

    /// The persisted quarantine: `(seed, mutator)` pairs; a `None` mutator
    /// blocks the whole seed.
    pub fn quarantine(&self) -> &[(String, Option<String>)] {
        &self.quarantine
    }

    /// Set-unions new pairs into the quarantine.
    pub fn merge_quarantine(&mut self, pairs: &[(String, Option<String>)]) {
        for pair in pairs {
            if !self.quarantine.contains(pair) {
                self.quarantine.push(pair.clone());
            }
        }
    }

    /// The machine-readable twin of `corpus stats`: one JSON object with
    /// per-entry stats and energies, tombstones, the quarantine, and the
    /// total energy. Schema checked by the `corpus_store` test suite.
    pub fn stats_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"type\":\"jcorpus-stats\",\"version\":1,\"dir\":\"{}\",",
            escape_json(&self.dir.display().to_string())
        ));
        // Layout rides along for sharded stores only: flat stats output
        // is byte-identical to what it was before sharding existed.
        if let Some(shards) = self.shards {
            out.push_str(&format!("\"shards\":{shards},"));
        }
        out.push_str("\"entries\":[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = match &e.parent {
                Some(p) => format!("\"{}\"", escape_json(p)),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"id\":\"{}\",\"name\":\"{}\",\"fingerprint\":\"{}\",\"provenance\":\"{}\",\
                 \"parent\":{parent},\"schedules\":{},\"yield_sum\":{:?},\"faults\":{},\
                 \"bugs\":{},\"energy\":{:?},\"floor_streak\":{}}}",
                escape_json(&e.id),
                escape_json(&e.name),
                fingerprint_hex(e.fingerprint),
                e.provenance.as_str(),
                e.stats.schedules,
                e.stats.yield_sum,
                e.stats.faults,
                e.stats.bugs,
                energy(&e.stats),
                e.floor_streak,
            ));
        }
        out.push_str("],\"tombstones\":[");
        for (i, t) in self.tombstones.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":\"{}\",\"name\":\"{}\",\"fingerprint\":\"{}\"}}",
                escape_json(&t.id),
                escape_json(&t.name),
                fingerprint_hex(t.fingerprint),
            ));
        }
        out.push_str("],\"quarantine\":[");
        for (i, (seed, mutator)) in self.quarantine.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mutator = match mutator {
                Some(m) => format!("\"{}\"", escape_json(m)),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"seed\":\"{}\",\"mutator\":{mutator}}}",
                escape_json(seed)
            ));
        }
        let total: f64 = self.entries.iter().map(|e| energy(&e.stats)).sum();
        out.push_str(&format!("],\"total_energy\":{total:?}}}"));
        out
    }

    /// Atomically rewrites the manifest, quarantine, and entry sources,
    /// under the store lock. State flushed by concurrent campaigns since
    /// this store was opened is folded in first (see module docs), so two
    /// campaigns finishing over one store lose neither quarantine pairs
    /// nor promoted entries.
    pub fn save(&mut self) -> Result<(), String> {
        if let Some(shards) = self.shards {
            return self.save_sharded(shards);
        }
        self.fs
            .create_dir_all(&self.dir.join(ENTRIES_DIR))
            .map_err(|e| format!("create {}: {e}", self.dir.display()))?;
        let _lock = StoreLock::acquire_with_vfs(&self.dir, DEFAULT_LOCK_TIMEOUT, self.fs.clone())?;
        self.merge_disk_state();
        for (entry, program) in self.entries.iter().zip(&self.programs) {
            // Unconditional rewrite: a crash between a source write and the
            // manifest rename could otherwise leave a stale file under a
            // reused id.
            let path = self
                .dir
                .join(ENTRIES_DIR)
                .join(format!("{}.java", entry.id));
            vfs::write_atomic(self.fs.as_ref(), &path, &mjava::print(program))?;
        }
        let mut manifest = String::new();
        manifest.push_str(&format!(
            "{{\"type\":\"jcorpus\",\"version\":{STORE_VERSION}}}\n"
        ));
        for entry in &self.entries {
            manifest.push_str(&encode_entry(entry));
            manifest.push('\n');
        }
        for tomb in &self.tombstones {
            manifest.push_str(&encode_tombstone(tomb));
        }
        vfs::write_atomic(self.fs.as_ref(), &self.dir.join(MANIFEST), &manifest)?;
        if !self.tombstones.is_empty() {
            for tomb in &self.tombstones {
                let src = self.dir.join(ENTRIES_DIR).join(format!("{}.java", tomb.id));
                let _ = self.fs.remove_file(&src);
            }
            // Make the unlinks durable; failures leave orphaned sources
            // that `corpus fsck` reports (the manifest is already safe).
            let _ = self.fs.fsync_dir(&self.dir.join(ENTRIES_DIR));
        }
        let mut quarantine = String::new();
        for (seed, mutator) in &self.quarantine {
            let mutator = match mutator {
                Some(m) => format!("\"{}\"", escape_json(m)),
                None => "null".to_string(),
            };
            quarantine.push_str(&format!(
                "{{\"seed\":\"{}\",\"mutator\":{mutator}}}\n",
                escape_json(seed)
            ));
        }
        vfs::write_atomic(self.fs.as_ref(), &self.dir.join(QUARANTINE), &quarantine)?;
        Ok(())
    }

    /// The sharded flush: only **dirty** shards are rewritten, each under
    /// its own lock in ascending shard order (a total order, so two
    /// tenants flushing overlapping shard sets cannot deadlock), with
    /// the same per-shard crash discipline as a flat save (sources
    /// first, then the atomic manifest rename, then tombstone unlinks).
    /// Disk state concurrent tenants flushed into a dirty shard is
    /// adopted before the rewrite; clean shards are not even read. The
    /// cross-shard quarantine is merged and rewritten last, under the
    /// top-level lock.
    fn save_sharded(&mut self, shards: usize) -> Result<(), String> {
        let dirty: Vec<usize> = self.dirty_shards.iter().copied().collect();
        for shard in dirty {
            let sdir = Store::shard_dir(&self.dir, shard);
            self.fs
                .create_dir_all(&sdir.join(ENTRIES_DIR))
                .map_err(|e| format!("create {}: {e}", sdir.display()))?;
            let _lock = StoreLock::acquire_with_vfs(&sdir, DEFAULT_LOCK_TIMEOUT, self.fs.clone())?;
            self.merge_disk_shard(shard, &sdir);
            let in_shard = |f: u64| (f % shards as u64) as usize == shard;
            for (entry, program) in self
                .entries
                .iter()
                .zip(&self.programs)
                .filter(|(e, _)| in_shard(e.fingerprint))
            {
                let path = sdir.join(ENTRIES_DIR).join(format!("{}.java", entry.id));
                vfs::write_atomic(self.fs.as_ref(), &path, &mjava::print(program))?;
            }
            let mut manifest = String::new();
            manifest.push_str(&format!(
                "{{\"type\":\"jcorpus\",\"version\":{STORE_VERSION}}}\n"
            ));
            for entry in self.entries.iter().filter(|e| in_shard(e.fingerprint)) {
                manifest.push_str(&encode_entry(entry));
                manifest.push('\n');
            }
            let shard_tombs: Vec<&Tombstone> = self
                .tombstones
                .iter()
                .filter(|t| in_shard(t.fingerprint))
                .collect();
            for tomb in &shard_tombs {
                manifest.push_str(&encode_tombstone(tomb));
            }
            vfs::write_atomic(self.fs.as_ref(), &sdir.join(MANIFEST), &manifest)?;
            if !shard_tombs.is_empty() {
                for tomb in &shard_tombs {
                    let src = sdir.join(ENTRIES_DIR).join(format!("{}.java", tomb.id));
                    let _ = self.fs.remove_file(&src);
                }
                let _ = self.fs.fsync_dir(&sdir.join(ENTRIES_DIR));
            }
        }
        self.fs
            .create_dir_all(&self.dir)
            .map_err(|e| format!("create {}: {e}", self.dir.display()))?;
        let _lock = StoreLock::acquire_with_vfs(&self.dir, DEFAULT_LOCK_TIMEOUT, self.fs.clone())?;
        if let Ok(disk) = read_quarantine(self.fs.as_ref(), &self.dir.join(QUARANTINE)) {
            self.merge_quarantine(&disk);
        }
        let mut quarantine = String::new();
        for (seed, mutator) in &self.quarantine {
            let mutator = match mutator {
                Some(m) => format!("\"{}\"", escape_json(m)),
                None => "null".to_string(),
            };
            quarantine.push_str(&format!(
                "{{\"seed\":\"{}\",\"mutator\":{mutator}}}\n",
                escape_json(seed)
            ));
        }
        vfs::write_atomic(self.fs.as_ref(), &self.dir.join(QUARANTINE), &quarantine)?;
        self.dirty_shards.clear();
        Ok(())
    }

    /// Per-shard twin of [`Store::merge_disk_state`]: adopts entries and
    /// tombstones a concurrent tenant flushed into `shard` since we
    /// opened (unknown fingerprints only, re-keyed under fresh per-shard
    /// ids and globally uniquified names). Best-effort like the flat
    /// merge. Caller holds the shard lock.
    fn merge_disk_shard(&mut self, shard: usize, sdir: &Path) {
        let Ok(text) = self.fs.read_to_string(&sdir.join(MANIFEST)) else {
            return;
        };
        let mut lines = text.lines();
        let Some(header) = lines.next() else {
            return;
        };
        if check_header(header).is_err() {
            return;
        }
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(decoded) = decode_line(line) else {
                continue;
            };
            match decoded {
                Decoded::Tomb(t) => {
                    if self.fingerprint_known(t.fingerprint) {
                        continue;
                    }
                    let id = format!("c{:04}", self.next_id_in(shard));
                    let name = self.unique_name(&t.name);
                    self.tombstones.push(Tombstone {
                        id,
                        name,
                        fingerprint: t.fingerprint,
                    });
                }
                Decoded::Live(entry, _) => {
                    if self.fingerprint_known(entry.fingerprint) {
                        continue;
                    }
                    let src = sdir.join(ENTRIES_DIR).join(format!("{}.java", entry.id));
                    let Ok(text) = self.fs.read_to_string(&src) else {
                        continue;
                    };
                    let Ok(program) = mjava::parse(&text) else {
                        continue;
                    };
                    let id = format!("c{:04}", self.next_id_in(shard));
                    let name = self.unique_name(&entry.name);
                    self.entries.push(Entry {
                        id,
                        name,
                        fingerprint: entry.fingerprint,
                        source_hash: source_hash(&program),
                        provenance: entry.provenance,
                        parent: entry.parent,
                        stats: entry.stats,
                        floor_streak: entry.floor_streak,
                    });
                    self.programs.push(program);
                }
            }
        }
    }

    /// Folds in state concurrent campaigns flushed since we opened:
    /// quarantine pairs are unioned; disk entries/tombstones whose
    /// fingerprints we do not know are adopted under fresh ids (ids are
    /// assigned per-open, so two campaigns racing can mint the same id
    /// for different programs — re-keying on adoption keeps both).
    /// Best-effort: unreadable lines are skipped, never fatal, because
    /// our own atomic rewrite is the recovery path for torn state.
    fn merge_disk_state(&mut self) {
        if let Ok(disk) = read_quarantine(self.fs.as_ref(), &self.dir.join(QUARANTINE)) {
            self.merge_quarantine(&disk);
        }
        let Ok(text) = self.fs.read_to_string(&self.dir.join(MANIFEST)) else {
            return;
        };
        let mut lines = text.lines();
        let Some(header) = lines.next() else {
            return;
        };
        if check_header(header).is_err() {
            return;
        }
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(decoded) = decode_line(line) else {
                continue;
            };
            match decoded {
                Decoded::Tomb(t) => {
                    if self.fingerprint_known(t.fingerprint) {
                        continue;
                    }
                    let id = format!("c{:04}", self.next_id());
                    let name = self.unique_name(&t.name);
                    self.tombstones.push(Tombstone {
                        id,
                        name,
                        fingerprint: t.fingerprint,
                    });
                }
                Decoded::Live(entry, _) => {
                    if self.fingerprint_known(entry.fingerprint) {
                        continue;
                    }
                    let src = self
                        .dir
                        .join(ENTRIES_DIR)
                        .join(format!("{}.java", entry.id));
                    let Ok(text) = self.fs.read_to_string(&src) else {
                        continue;
                    };
                    let Ok(program) = mjava::parse(&text) else {
                        continue;
                    };
                    let id = format!("c{:04}", self.next_id());
                    let name = self.unique_name(&entry.name);
                    self.entries.push(Entry {
                        id,
                        name,
                        fingerprint: entry.fingerprint,
                        source_hash: source_hash(&program),
                        provenance: entry.provenance,
                        parent: entry.parent,
                        stats: entry.stats,
                        floor_streak: entry.floor_streak,
                    });
                    self.programs.push(program);
                }
            }
        }
    }

    fn fingerprint_known(&self, fingerprint: u64) -> bool {
        self.entries.iter().any(|e| e.fingerprint == fingerprint)
            || self.tombstones.iter().any(|t| t.fingerprint == fingerprint)
    }

    fn next_id(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.id.as_str())
            .chain(self.tombstones.iter().map(|t| t.id.as_str()))
            .filter_map(|id| id.strip_prefix('c').and_then(|n| n.parse::<u64>().ok()))
            .max()
            .map_or(1, |n| n + 1)
    }

    /// [`Store::next_id`] scoped to one shard: ids only key source files
    /// inside their shard directory, so each shard numbers its own.
    fn next_id_in(&self, shard: usize) -> u64 {
        let shards = self.shards.expect("sharded store") as u64;
        self.entries
            .iter()
            .filter(|e| e.fingerprint % shards == shard as u64)
            .map(|e| e.id.as_str())
            .chain(
                self.tombstones
                    .iter()
                    .filter(|t| t.fingerprint % shards == shard as u64)
                    .map(|t| t.id.as_str()),
            )
            .filter_map(|id| id.strip_prefix('c').and_then(|n| n.parse::<u64>().ok()))
            .max()
            .map_or(1, |n| n + 1)
    }
}

/// Reads one flat-format store directory (the whole store, or one shard
/// of a sharded store): manifest header check, entry/tombstone decode
/// with torn-tail tolerance, and entry sources from `entries/`.
#[allow(clippy::type_complexity)]
fn read_store_dir(
    fs: &dyn Vfs,
    dir: &Path,
) -> Result<(Vec<Entry>, Vec<Program>, Vec<Tombstone>), String> {
    let manifest_path = dir.join(MANIFEST);
    let text = fs
        .read_to_string(&manifest_path)
        .map_err(|e| format!("read {}: {e}", manifest_path.display()))?;
    let mut lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    if lines.is_empty() {
        return Err(format!("{}: empty manifest", manifest_path.display()));
    }
    let (_, header) = lines.remove(0);
    check_header(header).map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    let mut entries = Vec::new();
    let mut programs = Vec::new();
    let mut tombstones = Vec::new();
    for (pos, (i, line)) in lines.iter().enumerate() {
        let decoded = match decode_line(line) {
            Ok(d) => d,
            // A torn tail (crash mid-write of the last record) is
            // recoverable: the record is dropped.
            Err(_) if pos + 1 == lines.len() => break,
            Err(e) => return Err(format!("{} line {}: {e}", manifest_path.display(), i + 1)),
        };
        match decoded {
            Decoded::Tomb(t) => tombstones.push(t),
            Decoded::Live(mut entry, has_hash) => {
                let src_path = dir.join(ENTRIES_DIR).join(format!("{}.java", entry.id));
                let src = fs
                    .read_to_string(&src_path)
                    .map_err(|e| format!("read {}: {e}", src_path.display()))?;
                let program = mjava::parse(&src)
                    .map_err(|e| format!("parse {}: {e:?}", src_path.display()))?;
                if !has_hash {
                    entry.source_hash = source_hash(&program);
                }
                entries.push(entry);
                programs.push(program);
            }
        }
    }
    Ok((entries, programs, tombstones))
}

pub(crate) fn shards_marker(shards: usize) -> String {
    format!("{{\"type\":\"jcorpus-shards\",\"version\":1,\"shards\":{shards}}}\n")
}

pub(crate) fn parse_shards_marker(text: &str) -> Result<usize, String> {
    let json = parse_json(text.lines().next().unwrap_or(""))?;
    if json.get("type").and_then(Json::as_str) != Some("jcorpus-shards") {
        return Err("not a jcorpus shards marker".to_string());
    }
    match req_u64(&json, "version")? {
        1 => {}
        v => return Err(format!("unsupported shards version {v}")),
    }
    match json.get("shards").and_then(Json::as_usize) {
        Some(n) if (1..=MAX_SHARDS).contains(&n) => Ok(n),
        _ => Err(format!("shard count must be 1..={MAX_SHARDS}")),
    }
}

fn check_shard_count(shards: usize) -> Result<(), String> {
    if (1..=MAX_SHARDS).contains(&shards) {
        Ok(())
    } else {
        Err(format!(
            "shard count must be 1..={MAX_SHARDS}, got {shards}"
        ))
    }
}

/// Converts the flat store at `dir` to the sharded layout in place,
/// under the top-level store lock. Every entry source and manifest line
/// is rewritten into its `fingerprint % shards` shard sub-store, the
/// layout marker is committed atomically (the cutover point: a crash
/// before it leaves the flat store fully intact, a crash after it leaves
/// a complete sharded store plus flat remnants the unlink pass below
/// would have removed), and the flat manifest and sources are unlinked.
/// Ids are preserved (globally unique implies per-shard unique). Run it
/// with no campaigns active over the store: a concurrent flat-layout
/// writer blocked on the lock would resurrect a flat manifest beside
/// the marker. Returns the number of entries migrated.
pub fn shard_store(dir: &Path, shards: usize) -> Result<usize, String> {
    shard_store_with(dir, shards, vfs::real())
}

/// [`shard_store`] with all I/O routed through `fs`.
pub fn shard_store_with(dir: &Path, shards: usize, fs: Arc<dyn Vfs>) -> Result<usize, String> {
    check_shard_count(shards)?;
    if fs.exists(&dir.join(SHARDS_MARKER)) {
        return Err(format!("store at {} is already sharded", dir.display()));
    }
    let store = Store::open_with(dir, fs.clone())?;
    let _lock = StoreLock::acquire_with_vfs(dir, DEFAULT_LOCK_TIMEOUT, fs.clone())?;
    for shard in 0..shards {
        let sdir = Store::shard_dir(dir, shard);
        fs.create_dir_all(&sdir.join(ENTRIES_DIR))
            .map_err(|e| format!("create {}: {e}", sdir.display()))?;
    }
    for (entry, program) in store.entries.iter().zip(&store.programs) {
        let shard = (entry.fingerprint % shards as u64) as usize;
        let path = Store::shard_dir(dir, shard)
            .join(ENTRIES_DIR)
            .join(format!("{}.java", entry.id));
        vfs::write_atomic(fs.as_ref(), &path, &mjava::print(program))?;
    }
    for shard in 0..shards {
        let in_shard = |f: u64| (f % shards as u64) as usize == shard;
        let mut manifest = String::new();
        manifest.push_str(&format!(
            "{{\"type\":\"jcorpus\",\"version\":{STORE_VERSION}}}\n"
        ));
        for entry in store.entries.iter().filter(|e| in_shard(e.fingerprint)) {
            manifest.push_str(&encode_entry(entry));
            manifest.push('\n');
        }
        for tomb in store.tombstones.iter().filter(|t| in_shard(t.fingerprint)) {
            manifest.push_str(&encode_tombstone(tomb));
        }
        vfs::write_atomic(
            fs.as_ref(),
            &Store::shard_dir(dir, shard).join(MANIFEST),
            &manifest,
        )?;
    }
    // The commit point: from here on, opens see the sharded layout.
    vfs::write_atomic(
        fs.as_ref(),
        &dir.join(SHARDS_MARKER),
        &shards_marker(shards),
    )?;
    // Drop the flat remnants (best-effort: leftovers are dead weight,
    // not corruption — the marker owns layout detection).
    let _ = fs.remove_file(&dir.join(MANIFEST));
    for entry in &store.entries {
        let _ = fs.remove_file(&dir.join(ENTRIES_DIR).join(format!("{}.java", entry.id)));
    }
    let _ = fs.fsync_dir(&dir.join(ENTRIES_DIR));
    let _ = fs.fsync_dir(dir);
    Ok(store.entries.len())
}

/// Removes `*.tmp` siblings a crashed save left behind, in the store
/// root and `entries/`. Caller must hold the store lock. Best-effort:
/// a failed unlink just leaves the file for `corpus fsck` to report.
fn sweep_stale_tmp(fs: &dyn Vfs, dir: &Path) {
    for d in [dir.to_path_buf(), dir.join(ENTRIES_DIR)] {
        let Ok(paths) = fs.read_dir(&d) else {
            continue;
        };
        let mut removed = false;
        for path in paths {
            if path.extension().is_some_and(|e| e == "tmp") {
                removed |= fs.remove_file(&path).is_ok();
            }
        }
        if removed {
            let _ = fs.fsync_dir(&d);
        }
    }
}

fn encode_entry(e: &Entry) -> String {
    let parent = match &e.parent {
        Some(p) => format!("\"{}\"", escape_json(p)),
        None => "null".to_string(),
    };
    format!(
        "{{\"id\":\"{}\",\"name\":\"{}\",\"fingerprint\":\"{}\",\"source_hash\":\"{}\",\
         \"provenance\":\"{}\",\"parent\":{parent},\"schedules\":{},\"yield_sum\":{:?},\
         \"faults\":{},\"bugs\":{},\"floor_streak\":{}}}",
        escape_json(&e.id),
        escape_json(&e.name),
        fingerprint_hex(e.fingerprint),
        fingerprint_hex(e.source_hash),
        e.provenance.as_str(),
        e.stats.schedules,
        e.stats.yield_sum,
        e.stats.faults,
        e.stats.bugs,
        e.floor_streak,
    )
}

pub(crate) fn encode_tombstone(t: &Tombstone) -> String {
    format!(
        "{{\"id\":\"{}\",\"name\":\"{}\",\"fingerprint\":\"{}\",\"tombstone\":true}}\n",
        escape_json(&t.id),
        escape_json(&t.name),
        fingerprint_hex(t.fingerprint),
    )
}

pub(crate) fn check_header(line: &str) -> Result<(), String> {
    let json = parse_json(line)?;
    if json.get("type").and_then(Json::as_str) != Some("jcorpus") {
        return Err("not a jcorpus manifest".to_string());
    }
    // v1 manifests predate source hashes, floor streaks, and tombstones;
    // all three default sensibly on decode.
    match req_u64(&json, "version")? {
        1 | STORE_VERSION => Ok(()),
        v => Err(format!("unsupported store version {v}")),
    }
}

/// One decoded manifest line: a live entry (plus whether the manifest
/// carried its source hash, absent in v1) or a tombstone.
pub(crate) enum Decoded {
    Live(Entry, bool),
    Tomb(Tombstone),
}

pub(crate) fn decode_line(line: &str) -> Result<Decoded, String> {
    let json = parse_json(line)?;
    if json.get("tombstone").and_then(Json::as_bool) == Some(true) {
        return Ok(Decoded::Tomb(Tombstone {
            id: req_str(&json, "id")?,
            name: req_str(&json, "name")?,
            fingerprint: parse_fingerprint(&req_str(&json, "fingerprint")?)?,
        }));
    }
    let parent = match json.get("parent") {
        Some(Json::Str(s)) => Some(s.clone()),
        Some(Json::Null) | None => None,
        Some(other) => return Err(format!("bad parent: {other:?}")),
    };
    let (source_hash, has_hash) = match json.get("source_hash") {
        Some(Json::Str(s)) => (parse_fingerprint(s)?, true),
        _ => (0, false),
    };
    Ok(Decoded::Live(
        Entry {
            id: req_str(&json, "id")?,
            name: req_str(&json, "name")?,
            fingerprint: parse_fingerprint(&req_str(&json, "fingerprint")?)?,
            source_hash,
            provenance: Provenance::from_str(&req_str(&json, "provenance")?)?,
            parent,
            stats: EntryStats {
                schedules: req_u64(&json, "schedules")?,
                yield_sum: req_f64(&json, "yield_sum")?,
                faults: req_u64(&json, "faults")?,
                bugs: req_u64(&json, "bugs")?,
            },
            // A v2 addition, absent from v1 manifests.
            floor_streak: match json.get("floor_streak") {
                None => 0,
                Some(_) => req_u64(&json, "floor_streak")?,
            },
        },
        has_hash,
    ))
}

/// Reads the on-disk quarantine of the store at `dir` without opening the
/// whole store — the cheap fleet-wide poll running campaigns use to
/// observe pairs that concurrently-running campaigns have flushed.
/// A missing file is an empty quarantine, not an error.
pub fn read_quarantine_dir(dir: &Path) -> Result<Vec<(String, Option<String>)>, String> {
    read_quarantine(vfs::real().as_ref(), &dir.join(QUARANTINE))
}

/// Decodes one quarantine line into its `(seed, mutator)` pair.
pub(crate) fn decode_quarantine_line(line: &str) -> Result<(String, Option<String>), String> {
    let json = parse_json(line)?;
    let seed = req_str(&json, "seed")?;
    let mutator = match json.get("mutator") {
        Some(Json::Str(s)) => Some(s.clone()),
        Some(Json::Null) => None,
        other => return Err(format!("bad mutator: {other:?}")),
    };
    Ok((seed, mutator))
}

/// Reads a quarantine file, tolerating (dropping) a torn final line —
/// the footprint of a crash mid-write — while corruption anywhere else
/// stays fatal. A missing file is an empty quarantine.
fn read_quarantine(fs: &dyn Vfs, path: &Path) -> Result<Vec<(String, Option<String>)>, String> {
    if !fs.exists(path) {
        return Ok(Vec::new());
    }
    let text = fs
        .read_to_string(path)
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let mut pairs = Vec::new();
    for (pos, (i, line)) in lines.iter().enumerate() {
        match decode_quarantine_line(line) {
            Ok(pair) => pairs.push(pair),
            Err(_) if pos + 1 == lines.len() => break,
            Err(e) => return Err(format!("{} line {}: {e}", path.display(), i + 1)),
        }
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("jcorpus-test-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn seeds() -> Vec<(String, Program)> {
        mjava::samples::all_seeds()
            .into_iter()
            .map(|s| (s.name.to_string(), s.program))
            .collect()
    }

    #[test]
    fn init_then_open_round_trips() {
        let dir = temp_dir("roundtrip");
        let mut store = Store::init(&dir).unwrap();
        for (i, (name, program)) in seeds().into_iter().enumerate().take(4) {
            let adm = store.admit(&name, &program, i as u64 + 10, Provenance::Builtin, None);
            assert_eq!(adm, Admission::Fresh(name));
        }
        store
            .set_stats(
                "listing2",
                EntryStats {
                    schedules: 3,
                    yield_sum: 41.25,
                    faults: 1,
                    bugs: 2,
                },
            )
            .unwrap();
        store.set_floor_streak("listing2", 2).unwrap();
        store.merge_quarantine(&[
            ("listing2".to_string(), Some("Inlining".to_string())),
            ("gen_001".to_string(), None),
        ]);
        store.save().unwrap();
        let manifest_a = fs::read_to_string(dir.join(MANIFEST)).unwrap();

        let mut reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.entries(), store.entries());
        assert_eq!(reopened.quarantine(), store.quarantine());
        for entry in store.entries() {
            assert_eq!(
                reopened.program(&entry.name).unwrap(),
                store.program(&entry.name).unwrap()
            );
        }
        reopened.save().unwrap();
        let manifest_b = fs::read_to_string(dir.join(MANIFEST)).unwrap();
        assert_eq!(manifest_a, manifest_b, "save is byte-stable");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn init_refuses_existing_store() {
        let dir = temp_dir("exists");
        Store::init(&dir).unwrap();
        assert!(Store::init(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn admit_dedups_by_fingerprint() {
        let dir = temp_dir("dedup");
        let mut store = Store::init(&dir).unwrap();
        let (name, program) = seeds().remove(0);
        assert_eq!(
            store.admit(&name, &program, 7, Provenance::Builtin, None),
            Admission::Fresh(name.clone())
        );
        // Same fingerprint, different name: collapses into the first entry.
        assert_eq!(
            store.admit("other", &program, 7, Provenance::Imported, None),
            Admission::Duplicate(name.clone())
        );
        // Same name, different fingerprint: uniquified.
        assert_eq!(
            store.admit(&name, &program, 8, Provenance::Imported, None),
            Admission::Fresh(format!("{name}_2"))
        );
        assert_eq!(store.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_quarantine_is_a_set_union() {
        let dir = temp_dir("quarantine");
        let mut store = Store::init(&dir).unwrap();
        let pair = ("s".to_string(), Some("Hoisting".to_string()));
        store.merge_quarantine(std::slice::from_ref(&pair));
        store.merge_quarantine(&[pair.clone(), ("t".to_string(), None)]);
        assert_eq!(store.quarantine().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_tombstones_floor_streak_entries() {
        let dir = temp_dir("gc");
        let mut store = Store::init(&dir).unwrap();
        let mut all = seeds();
        let (keep_name, keep) = all.remove(0);
        let (drop_name, dropped) = all.remove(0);
        let (fresh_name, fresh) = all.remove(0);
        store.admit(&keep_name, &keep, 1, Provenance::Builtin, None);
        store.admit(&drop_name, &dropped, 2, Provenance::Builtin, None);
        store.admit(&fresh_name, &fresh, 3, Provenance::Builtin, None);
        for name in [&keep_name, &drop_name] {
            store
                .set_stats(
                    name,
                    EntryStats {
                        schedules: 5,
                        yield_sum: 0.0,
                        faults: 0,
                        bugs: 0,
                    },
                )
                .unwrap();
        }
        store.set_floor_streak(&drop_name, 3).unwrap();
        // `fresh` was never scheduled: immune even with a long streak.
        store.set_floor_streak(&fresh_name, 99).unwrap();
        store.save().unwrap();

        assert_eq!(store.gc(3), vec![drop_name.clone()]);
        store.save().unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.tombstones().len(), 1);
        assert!(!dir.join(ENTRIES_DIR).join("c0002.java").exists());

        let mut reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.tombstones(), store.tombstones());
        // Older journals still resolve the name: stats flushes no-op ...
        reopened
            .set_stats(&drop_name, EntryStats::default())
            .unwrap();
        reopened.set_floor_streak(&drop_name, 0).unwrap();
        // ... re-promotions dedup against the tombstone ...
        assert_eq!(
            reopened.admit("again", &dropped, 2, Provenance::Promoted, None),
            Admission::Duplicate(drop_name.clone())
        );
        // ... and new admissions never reuse its id or name.
        assert_eq!(
            reopened.admit(&drop_name, &dropped, 99, Provenance::Imported, None),
            Admission::Fresh(format!("{drop_name}_2"))
        );
        assert_eq!(reopened.entries().last().unwrap().id, "c0004");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_manifests_are_upgraded_on_open() {
        let dir = temp_dir("v1");
        let mut store = Store::init(&dir).unwrap();
        let (name, program) = seeds().remove(0);
        store.admit(&name, &program, 42, Provenance::Builtin, None);
        store.save().unwrap();
        // Rewrite the manifest as a v1 file: no source_hash, no
        // floor_streak, version 1 header.
        let manifest = fs::read_to_string(dir.join(MANIFEST)).unwrap();
        let v1: String = manifest
            .replace("\"version\":2", "\"version\":1")
            .lines()
            .map(|l| {
                let l = match l.find("\"source_hash\":") {
                    Some(i) => {
                        let rest = &l[i..];
                        let end = rest.find("\",").map(|e| i + e + 2).unwrap();
                        format!("{}{}", &l[..i], &l[end..])
                    }
                    None => l.to_string(),
                };
                match l.find(",\"floor_streak\":") {
                    Some(i) => format!("{}}}", &l[..i]),
                    None => l,
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        fs::write(dir.join(MANIFEST), v1).unwrap();
        let reopened = Store::open(&dir).unwrap();
        let entry = &reopened.entries()[0];
        assert_eq!(entry.source_hash, source_hash(&program), "recomputed");
        assert_eq!(entry.floor_streak, 0);
        assert_eq!(
            reopened.memoized_fingerprint(&program),
            Some(42),
            "memoization works after upgrade"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_init_open_round_trips() {
        let dir = temp_dir("shard-roundtrip");
        let mut store = Store::init_sharded(&dir, 4).unwrap();
        assert_eq!(store.shards(), Some(4));
        for (i, (name, program)) in seeds().into_iter().enumerate().take(6) {
            let adm = store.admit(&name, &program, i as u64 + 10, Provenance::Builtin, None);
            assert_eq!(adm, Admission::Fresh(name));
        }
        store
            .set_stats(
                "listing2",
                EntryStats {
                    schedules: 3,
                    yield_sum: 41.25,
                    faults: 1,
                    bugs: 2,
                },
            )
            .unwrap();
        store.merge_quarantine(&[("listing2".to_string(), None)]);
        store.save().unwrap();
        assert!(dir.join(SHARDS_MARKER).exists());
        assert!(!dir.join(MANIFEST).exists(), "no flat manifest");

        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.shards(), Some(4));
        assert_eq!(reopened.len(), store.len());
        assert_eq!(reopened.quarantine(), store.quarantine());
        for entry in store.entries() {
            assert_eq!(
                reopened.program(&entry.name).unwrap(),
                store.program(&entry.name).unwrap()
            );
            let reo = reopened
                .entries()
                .iter()
                .find(|e| e.name == entry.name)
                .unwrap();
            assert_eq!(reo, entry);
        }
        assert!(reopened.stats_json().contains("\"shards\":4"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_save_only_rewrites_dirty_shards() {
        let dir = temp_dir("shard-dirty");
        let mut store = Store::init_sharded(&dir, 4).unwrap();
        let mut all = seeds();
        let (a_name, a_prog) = all.remove(0);
        let (b_name, b_prog) = all.remove(0);
        store.admit(&a_name, &a_prog, 4, Provenance::Builtin, None); // shard 0
        store.admit(&b_name, &b_prog, 5, Provenance::Builtin, None); // shard 1
        store.save().unwrap();

        let mut reopened = Store::open(&dir).unwrap();
        // Corrupt shard 0's manifest mtime proxy: overwrite shard 1's
        // manifest with a sentinel, then touch only shard 0 — the save
        // must leave shard 1's file exactly as we left it.
        let shard1_manifest = Store::shard_dir(&dir, 1).join(MANIFEST);
        let sentinel = fs::read_to_string(&shard1_manifest).unwrap() + "\n\n";
        fs::write(&shard1_manifest, &sentinel).unwrap();
        reopened
            .set_stats(
                &a_name,
                EntryStats {
                    schedules: 1,
                    yield_sum: 1.0,
                    faults: 0,
                    bugs: 0,
                },
            )
            .unwrap();
        reopened.save().unwrap();
        assert_eq!(
            fs::read_to_string(&shard1_manifest).unwrap(),
            sentinel,
            "clean shard untouched by the flush"
        );
        let shard0 = fs::read_to_string(Store::shard_dir(&dir, 0).join(MANIFEST)).unwrap();
        assert!(shard0.contains("\"schedules\":1"), "{shard0}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_migration_round_trips_and_fsck_stats_agree() {
        let dir = temp_dir("shard-migrate");
        let mut store = Store::init(&dir).unwrap();
        for (i, (name, program)) in seeds().into_iter().enumerate().take(5) {
            store.admit(&name, &program, i as u64 + 100, Provenance::Builtin, None);
        }
        store
            .set_stats(
                store.entries()[0].name.clone().as_str(),
                EntryStats {
                    schedules: 2,
                    yield_sum: 7.5,
                    faults: 0,
                    bugs: 1,
                },
            )
            .unwrap();
        store.merge_quarantine(&[("x".to_string(), Some("Inlining".to_string()))]);
        store.save().unwrap();
        let flat_stats = store.stats_json();

        let migrated = shard_store(&dir, 3).unwrap();
        assert_eq!(migrated, 5);
        assert!(!dir.join(MANIFEST).exists(), "flat manifest removed");

        let sharded = Store::open(&dir).unwrap();
        assert_eq!(sharded.shards(), Some(3));
        assert_eq!(sharded.len(), 5);
        assert_eq!(sharded.quarantine(), store.quarantine());
        for entry in store.entries() {
            let migrated_entry = sharded
                .entries()
                .iter()
                .find(|e| e.name == entry.name)
                .expect("entry survives migration");
            assert_eq!(migrated_entry, entry, "ids and stats preserved");
            assert_eq!(
                sharded.program(&entry.name).unwrap(),
                store.program(&entry.name).unwrap()
            );
        }
        // Stats carry the layout and the same totals (entry order is
        // shard-major after migration, so byte equality cannot hold).
        let sharded_stats = sharded.stats_json();
        assert!(sharded_stats.contains("\"shards\":3"), "{sharded_stats}");
        let total = flat_stats.split("\"total_energy\":").nth(1).unwrap();
        assert!(
            sharded_stats.ends_with(&format!("\"total_energy\":{total}")),
            "{sharded_stats}"
        );
        // Migrating twice fails; so does an absurd shard count.
        assert!(shard_store(&dir, 3)
            .unwrap_err()
            .contains("already sharded"));
        assert!(shard_store(&temp_dir("none"), 500).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_save_adopts_concurrent_flushes() {
        let dir = temp_dir("shard-adopt");
        let mut all = seeds();
        let (base_name, base) = all.remove(0);
        let (a_name, a_prog) = all.remove(0);
        let (b_name, b_prog) = all.remove(0);
        let mut init = Store::init_sharded(&dir, 2).unwrap();
        init.admit(&base_name, &base, 1, Provenance::Builtin, None);
        init.save().unwrap();
        let mut campaign_a = Store::open(&dir).unwrap();
        let mut campaign_b = Store::open(&dir).unwrap();
        // Both tenants promote into the same shard (fingerprints ≡ 0
        // mod 2) and race for the same per-shard id.
        campaign_a.admit(&a_name, &a_prog, 100, Provenance::Promoted, None);
        campaign_a.merge_quarantine(&[("s1".to_string(), None)]);
        campaign_a.save().unwrap();
        campaign_b.admit(&b_name, &b_prog, 200, Provenance::Promoted, None);
        campaign_b.merge_quarantine(&[("s2".to_string(), Some("Inlining".to_string()))]);
        campaign_b.save().unwrap();
        let merged = Store::open(&dir).unwrap();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.quarantine().len(), 2);
        for (name, program) in [(&a_name, &a_prog), (&b_name, &b_prog)] {
            assert_eq!(merged.program(name).unwrap(), program);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cross_shard_name_collision_is_repaired_on_open() {
        let dir = temp_dir("shard-rename");
        let mut all = seeds();
        let (_, a_prog) = all.remove(0);
        let (_, b_prog) = all.remove(0);
        let mut store = Store::init_sharded(&dir, 2).unwrap();
        store.admit("seed", &a_prog, 2, Provenance::Builtin, None); // shard 0
        store.save().unwrap();
        // Simulate the concurrent-tenant race by planting the same name
        // in shard 1 directly.
        let mut other = Store::init(&temp_dir("shard-rename-src")).unwrap();
        other.admit("seed", &b_prog, 3, Provenance::Builtin, None);
        let sdir = Store::shard_dir(&dir, 1);
        fs::write(
            sdir.join(ENTRIES_DIR).join("c0001.java"),
            mjava::print(&b_prog),
        )
        .unwrap();
        let manifest = format!(
            "{{\"type\":\"jcorpus\",\"version\":2}}\n{}\n",
            encode_entry(&other.entries()[0])
        );
        fs::write(sdir.join(MANIFEST), manifest).unwrap();

        let mut reopened = Store::open(&dir).unwrap();
        let mut names: Vec<&str> = reopened.entries().iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, ["seed", "seed_2"], "collision uniquified");
        // The repair is persisted by the next save and stable thereafter.
        reopened.save().unwrap();
        let again = Store::open(&dir).unwrap();
        let mut names: Vec<&str> = again.entries().iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, ["seed", "seed_2"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_adopts_concurrent_flushes() {
        let dir = temp_dir("adopt");
        let mut all = seeds();
        let (base_name, base) = all.remove(0);
        let (a_name, a_prog) = all.remove(0);
        let (b_name, b_prog) = all.remove(0);
        let mut init = Store::init(&dir).unwrap();
        init.admit(&base_name, &base, 1, Provenance::Builtin, None);
        init.save().unwrap();
        // Two campaigns open the same baseline ...
        let mut campaign_a = Store::open(&dir).unwrap();
        let mut campaign_b = Store::open(&dir).unwrap();
        // ... both promote different programs (racing for the same id)
        // and quarantine different pairs ...
        campaign_a.admit(&a_name, &a_prog, 100, Provenance::Promoted, None);
        campaign_a.merge_quarantine(&[("s1".to_string(), None)]);
        campaign_a.save().unwrap();
        campaign_b.admit(&b_name, &b_prog, 200, Provenance::Promoted, None);
        campaign_b.merge_quarantine(&[("s2".to_string(), Some("Inlining".to_string()))]);
        campaign_b.save().unwrap();
        // ... and the final state holds all three entries and both pairs.
        let merged = Store::open(&dir).unwrap();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.quarantine().len(), 2);
        for (name, program) in [(&a_name, &a_prog), (&b_name, &b_prog)] {
            assert_eq!(merged.program(name).unwrap(), program);
        }
        let mut ids: Vec<&str> = merged.entries().iter().map(|e| e.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3, "adopted entries get fresh ids");
        let _ = fs::remove_dir_all(&dir);
    }
}
