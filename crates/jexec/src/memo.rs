//! The process-wide execution memo.
//!
//! An execution is a pure function of the image's content and the
//! execution limits: the same [`Image::content_fp`], `fuel`,
//! `max_call_depth` and [`ExecMode`] always produce the same [`Outcome`].
//! The differential oracle runs every mutant's tier 0 on eight JVMs, the
//! fuzz loop ran the same tier 0 just before, and JVM versions that share
//! a phase order install identical compiled code, so a campaign repeats
//! many executions exactly. [`run`] executes each distinct
//! `(content, limits, mode)` once and answers the repeats from the memo.
//!
//! A hit is observably a run: it replays every side effect a real run has
//! on the thread and its telemetry session — the `interp_run` trace span,
//! the `InterpRuns`/`InterpSteps` counters, the code-cache lookup keys and
//! inline count in the thread-local logs, and under `--profile` the exact
//! per-opcode and per-superinstruction hits (with zero sampled nanos: a
//! hit has no wall time to sample). Journals, metrics snapshots and
//! manual-clock traces therefore do not depend on whether, or in which
//! worker, a run hit.
//!
//! The mode is part of the key so that the two substrates never answer
//! for each other: the equivalence battery compares them, and a memo
//! shared across modes would compare a substrate with itself. Whether
//! the session profiles is part of it too, so a profiled entry always
//! has the hits to replay.
//!
//! Only completed runs are stored; a run that panics (injected panic,
//! watchdog cancellation) unwinds past the store. The memo holds at most
//! [`MEMO_CAP`] entries and [`MEMO_BYTES`] bytes of outcomes and is
//! flushed wholesale on overflow; [`crate::threaded::cache_reset`]
//! empties it at campaign start. [`crate::run`] and the substrates' own
//! `run` functions stay uncached real executions.

use crate::image::{Fnv, Image};
use crate::interp::{self, ExecConfig, ExecMode, Outcome};
use crate::profile::ProfileHits;
use crate::threaded;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Entry cap; on overflow the memo is flushed wholesale, like the code
/// cache. Presence in the memo never affects results or telemetry.
pub const MEMO_CAP: usize = 8192;
/// Byte cap over the stored outcomes (printed output, profiles and
/// logged keys); on overflow the memo is flushed wholesale.
pub const MEMO_BYTES: usize = 32 << 20;

/// The side effects of one execution beyond its [`Outcome`] that a memo
/// hit replays.
#[derive(Default)]
pub(crate) struct Effects {
    /// Code-cache lookup keys, in execution order (threaded only).
    pub(crate) lookups: Vec<u64>,
    /// Leaf calls executed inline (threaded only).
    pub(crate) inlined: u64,
    /// Exact profile hits, when the run was profiled.
    pub(crate) profile: Option<ProfileHits>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    content: u64,
    fuel: u64,
    max_call_depth: usize,
    mode: ExecMode,
    profiling: bool,
}

impl Key {
    fn of(image: &Image, config: &ExecConfig) -> Key {
        Key {
            content: image.content_fp(),
            fuel: config.fuel,
            max_call_depth: config.max_call_depth,
            mode: config.mode,
            profiling: jtelemetry::profiling(),
        }
    }

    /// The key's log form (see [`take_log`]).
    fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.content);
        h.u64(self.fuel);
        h.u64(self.max_call_depth as u64);
        h.byte(match self.mode {
            ExecMode::Interp => 0,
            ExecMode::Threaded => 1,
        });
        h.0
    }
}

struct Entry {
    outcome: Outcome,
    effects: Effects,
    bytes: usize,
}

impl Entry {
    fn new(outcome: Outcome, effects: Effects) -> Entry {
        let output: usize = outcome.output.iter().map(|l| 24 + l.len()).sum();
        let profile = 16 * outcome.profile.invocations.len();
        let bytes = 256
            + output
            + profile
            + 8 * effects.lookups.len()
            + effects.profile.as_ref().map_or(0, ProfileHits::bytes);
        Entry {
            outcome,
            effects,
            bytes,
        }
    }
}

#[derive(Default)]
struct Memo {
    map: HashMap<Key, Arc<Entry>>,
    bytes: usize,
}

static MEMO: OnceLock<RwLock<Memo>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Memo keys looked up by this thread, in execution order. Drained by
    /// `jvmsim::run_jvm` into its `CacheLog`, where the oracle counts hits
    /// and misses in canonical merge order, as for the code cache.
    static LOG: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn memo() -> &'static RwLock<Memo> {
    MEMO.get_or_init(|| RwLock::new(Memo::default()))
}

fn memo_read() -> RwLockReadGuard<'static, Memo> {
    memo().read().unwrap_or_else(|e| e.into_inner())
}

fn memo_write() -> RwLockWriteGuard<'static, Memo> {
    memo().write().unwrap_or_else(|e| e.into_inner())
}

/// Statistics of the process-wide memo (for benches and tests; the
/// deterministic telemetry counters derive from [`take_log`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently accounted to the resident entries.
    pub bytes: usize,
    /// Lookups answered from the memo since the last reset.
    pub hits: u64,
    /// Lookups that executed since the last reset.
    pub misses: u64,
}

/// Live statistics of the process-wide memo.
pub fn stats() -> MemoStats {
    let memo = memo_read();
    MemoStats {
        entries: memo.map.len(),
        bytes: memo.bytes,
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
    }
}

/// Empties the memo and zeroes its statistics. Called by
/// [`crate::threaded::cache_reset`].
pub fn reset() {
    let mut memo = memo_write();
    memo.map.clear();
    memo.bytes = 0;
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

/// Drains this thread's log of memo keys.
pub fn take_log() -> Vec<u64> {
    LOG.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

/// The memo key of executing `image` under `config`, in log form: equal
/// exactly when the image contents, fuel, depth limit and mode are equal
/// (up to fingerprint collisions). Whether the session profiles is left
/// out: it is fixed for a session, and the log is counted per session.
pub fn key(image: &Image, config: &ExecConfig) -> u64 {
    Key::of(image, config).digest()
}

/// Executes `image` on the substrate selected by `config.mode`, or
/// answers from the memo when the same content already ran under the
/// same limits and mode. Observably identical to [`crate::run`],
/// telemetry included (see the module docs).
pub fn run(image: &Image, config: &ExecConfig) -> Outcome {
    let key = Key::of(image, config);
    LOG.with(|l| l.borrow_mut().push(key.digest()));
    let found = memo_read().map.get(&key).cloned();
    if let Some(entry) = found {
        HITS.fetch_add(1, Ordering::Relaxed);
        replay(&entry);
        return entry.outcome.clone();
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let (outcome, effects) = match config.mode {
        ExecMode::Interp => interp::execute(image, config),
        ExecMode::Threaded => threaded::execute(image, config),
    };
    store(key, Entry::new(outcome.clone(), effects));
    outcome
}

/// Re-emits a stored run's side effects, in the order a real run emits
/// them.
fn replay(entry: &Entry) {
    let _trace = jtelemetry::trace_span("interp_run", Vec::new);
    jtelemetry::count(jtelemetry::Counter::InterpRuns, 1);
    jtelemetry::count(jtelemetry::Counter::InterpSteps, entry.outcome.stats.steps);
    threaded::log_lookups(&entry.effects.lookups, entry.effects.inlined);
    if let Some(profile) = &entry.effects.profile {
        profile.replay();
    }
}

fn store(key: Key, entry: Entry) {
    if entry.bytes > MEMO_BYTES {
        return;
    }
    let mut guard = memo_write();
    let memo = &mut *guard;
    if memo.map.len() >= MEMO_CAP || memo.bytes + entry.bytes > MEMO_BYTES {
        memo.map.clear();
        memo.bytes = 0;
    }
    // A racing run of the same key may have stored an equal entry first.
    if let std::collections::hash_map::Entry::Vacant(slot) = memo.map.entry(key) {
        memo.bytes += entry.bytes;
        slot.insert(Arc::new(entry));
    }
}
