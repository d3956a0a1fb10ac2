//! The execution memo (`jexec::memo`): a hit must be indistinguishable
//! from a real run — same `Outcome`, same telemetry session deltas, same
//! thread-local logs — and the key must separate everything an execution
//! depends on.
//!
//! The memo is process-wide, so the tests in this binary take one lock
//! and read live hit/miss statistics only while holding it.

use jexec::{memo, ExecConfig, ExecMode, Image, Outcome};
use jtelemetry::export::trace_json;
use jtelemetry::{ManualClock, MetricsSnapshot, Session};
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn image(src: &str) -> Image {
    Image::build(&mjava::parse(src).expect("parses")).expect("builds")
}

fn config(mode: ExecMode) -> ExecConfig {
    ExecConfig {
        mode,
        ..ExecConfig::default()
    }
}

/// Programs covering plain loops, leaf inlining and fused ops, objects,
/// monitors, reflection, and runs that end in an error or out of fuel.
const PROGRAMS: &[&str] = &[
    "class T { static int f(int a, int b) { return a * b + 1; } static void main() { int s = 0; for (int i = 0; i < 300; i++) { s = s + T.f(i, 3); } System.out.println(s); } }",
    "class T { int f; int bump(int d) { f = f + d; return f; } static void main() { T t = new T(); for (int i = 0; i < 50; i++) { t.bump(i); } System.out.println(t.bump(7)); } }",
    "class T { static int s = 10; static void main() { synchronized (T.class) { s = s * 3; } System.out.println(s); } }",
    "class T { int f; int get(int d) { return f + d; } static void main() { T t = new T(); t.f = 40; System.out.println(Class.forName(\"T\").getDeclaredMethod(\"get\").invoke(t, 2)); } }",
    "class T { static void main() { int x = 0; for (int i = 0; i < 10; i++) { x = x + i; } System.out.println(x / (x - 45)); } }",
    "class T { static void main() { long a = 0L; while (true) { a = a + 1L; } } }",
];

/// Everything one execution leaves behind: its outcome, the session's
/// snapshot and trace under a manual clock, and the thread-local logs.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Outcome,
    snapshot: MetricsSnapshot,
    trace: String,
    lookups: Vec<u64>,
    inlined: u64,
    memo_keys: Vec<u64>,
}

fn observe(profile: bool, run: impl FnOnce() -> Outcome) -> Observed {
    let _ = jexec::threaded::take_lookup_log();
    let _ = jexec::threaded::take_inline_count();
    let _ = memo::take_log();
    let mut session = Session::with_clock(Box::new(ManualClock::new())).with_trace();
    if profile {
        session = session.with_profile();
    }
    jtelemetry::install(session);
    let outcome = run();
    let session = jtelemetry::take().expect("installed");
    Observed {
        outcome,
        snapshot: session.snapshot(),
        trace: trace_json(&session, &[]).expect("tracing session"),
        lookups: jexec::threaded::take_lookup_log(),
        inlined: jexec::threaded::take_inline_count(),
        memo_keys: memo::take_log(),
    }
}

#[test]
fn a_hit_and_a_miss_leave_equal_outcomes_and_session_deltas() {
    let _serial = serial();
    for src in PROGRAMS {
        let image = image(src);
        for mode in [ExecMode::Interp, ExecMode::Threaded] {
            let mut cfg = config(mode);
            cfg.fuel = 50_000;
            for profile in [false, true] {
                jexec::threaded::cache_reset();
                let real = observe(profile, || jexec::run(&image, &cfg));
                let miss = observe(profile, || memo::run(&image, &cfg));
                let before = memo::stats();
                let hit = observe(profile, || memo::run(&image, &cfg));
                let after = memo::stats();
                assert_eq!(after.hits, before.hits + 1, "{mode:?} {src}");
                assert_eq!(after.misses, before.misses, "{mode:?} {src}");
                assert_eq!(miss, hit, "{mode:?} profile={profile} {src}");
                assert_eq!(miss.memo_keys, vec![memo::key(&image, &cfg)]);
                // Apart from the memo key, a memoized run is the real run.
                assert_eq!(
                    Observed {
                        memo_keys: Vec::new(),
                        ..miss
                    },
                    real,
                    "{mode:?} profile={profile} {src}"
                );
                if profile {
                    assert!(!real.snapshot.opcodes.is_empty());
                }
                if mode == ExecMode::Threaded {
                    assert!(!real.lookups.is_empty());
                }
            }
        }
    }
}

#[test]
fn profiled_and_unprofiled_sessions_get_separate_entries() {
    let _serial = serial();
    let image = image(PROGRAMS[0]);
    let cfg = config(ExecMode::Threaded);
    jexec::threaded::cache_reset();
    let plain = observe(false, || memo::run(&image, &cfg));
    let profiled = observe(true, || memo::run(&image, &cfg));
    let stats = memo::stats();
    assert_eq!(
        (stats.entries, stats.misses),
        (2, 2),
        "the profiled run executes"
    );
    let real = observe(true, || jexec::run(&image, &cfg));
    assert_eq!(profiled.snapshot, real.snapshot);
    assert_eq!(plain.outcome, profiled.outcome);
    // Each entry answers its own kind of session.
    assert_eq!(observe(false, || memo::run(&image, &cfg)), plain);
    assert_eq!(observe(true, || memo::run(&image, &cfg)), profiled);
    let stats = memo::stats();
    assert_eq!((stats.entries, stats.hits), (2, 2));
}

#[test]
fn every_input_of_an_execution_changes_the_key() {
    let base_src = "class T { int f = 1; static int s = 2; static int g(int a) { return a + 1; } static void main() { T t = new T(); System.out.println(T.g(s) + t.f); } }";
    let base = image(base_src);
    let cfg = config(ExecMode::Threaded);
    let key = memo::key(&base, &cfg);
    assert_eq!(
        key,
        memo::key(&image(base_src), &cfg),
        "stable across builds"
    );

    let variants = [
        // One method's code.
        base_src.replace("a + 1", "a + 2"),
        // A static initial value.
        base_src.replace("static int s = 2", "static int s = 3"),
        // An instance field default.
        base_src.replace("int f = 1", "int f = 4"),
        // A field's type.
        base_src.replace("int f = 1", "long f = 1L"),
    ];
    for src in &variants {
        assert_ne!(memo::key(&image(src), &cfg), key, "{src}");
    }
    let limits = [
        ExecConfig {
            fuel: cfg.fuel - 1,
            ..cfg
        },
        ExecConfig {
            max_call_depth: cfg.max_call_depth + 1,
            ..cfg
        },
        config(ExecMode::Interp),
    ];
    for other in &limits {
        assert_ne!(memo::key(&base, other), key, "{other:?}");
    }

    // A JIT tier-up changes the content, not the shape.
    let mut compiled = base.clone();
    let g = compiled.method_id("T", "g").expect("g");
    let source = variants[0].clone();
    let code = image(&source).methods[g].code.clone();
    compiled.install_code(g, code);
    assert_ne!(memo::key(&compiled, &cfg), key);
    assert_ne!(compiled.content_fp(), base.content_fp());
    assert_eq!(compiled.shape_fp(), base.shape_fp());
    // Installing the original code back restores it.
    let original = base.methods[g].code.clone();
    compiled.install_code(g, original);
    assert_eq!(memo::key(&compiled, &cfg), key);
}

#[test]
fn interp_then_threaded_on_one_image_executes_the_threaded_run() {
    let _serial = serial();
    let image = image(PROGRAMS[0]);
    jexec::threaded::cache_reset();
    let interp = observe(false, || memo::run(&image, &config(ExecMode::Interp)));
    assert!(interp.lookups.is_empty());
    let threaded = observe(false, || memo::run(&image, &config(ExecMode::Threaded)));
    assert_eq!(memo::stats().misses, 2);
    assert_eq!(memo::stats().hits, 0);
    assert!(
        !threaded.lookups.is_empty(),
        "the threaded substrate looked up its code"
    );
    assert_eq!(interp.outcome, threaded.outcome);
    assert_ne!(interp.memo_keys, threaded.memo_keys);
}

#[test]
fn a_cancelled_run_stores_nothing() {
    let _serial = serial();
    let image = image(PROGRAMS[5]);
    let cfg = config(ExecMode::Threaded);
    jexec::threaded::cache_reset();
    let token = jtelemetry::cancel::CancelToken::new();
    token.cancel();
    let died = std::panic::catch_unwind(|| {
        let _guard = jtelemetry::cancel::install(&token);
        memo::run(&image, &cfg)
    });
    assert!(died.is_err(), "cancellation unwinds");
    assert_eq!(memo::stats().entries, 0);
    let outcome = memo::run(&image, &cfg);
    assert_eq!(memo::stats().misses, 2, "the next run executes");
    assert_eq!(outcome, jexec::run(&image, &cfg));
}

#[test]
fn the_memo_is_bounded_and_reset_empties_it() {
    let _serial = serial();
    let image = image("class T { static void main() { System.out.println(1); } }");
    jexec::threaded::cache_reset();
    for fuel in 0..=memo::MEMO_CAP as u64 {
        let cfg = ExecConfig {
            fuel: 1_000 + fuel,
            ..config(ExecMode::Interp)
        };
        memo::run(&image, &cfg);
        let stats = memo::stats();
        assert!(stats.entries <= memo::MEMO_CAP);
        assert!(stats.bytes <= memo::MEMO_BYTES);
    }
    // The entry that overflowed the cap flushed the rest.
    assert_eq!(memo::stats().entries, 1);
    jexec::threaded::cache_reset();
    assert_eq!(memo::stats(), memo::MemoStats::default());
}
