//! Decoders never abort the process: the campaign-journal reader, the
//! corpus-manifest loader and the daemon's campaign-spec parser, fed
//! truncated, garbage and more than 64-deep inputs, return errors (or, for
//! a journal or manifest cut inside its last line, the intact prefix) and
//! never panic.

use jtelemetry::schema::MAX_JSON_DEPTH;
use mopfuzzer::{corpus, read_journal, run_campaign_with_journal, CampaignConfig};
use mopfuzzerd::CampaignSpec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ffi::OsString;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

const SPEC: &str = r#"{"rounds":3,"seed":7,"iterations":4,"jobs":1,"oracle_jobs":1,"round_timeout_ms":5000,"corpus":null}"#;

fn scratch() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mop_decoders_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A real two-round journal.
fn journal_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let dir = scratch();
        let path = dir.join("journal.jsonl");
        let mut config = CampaignConfig::new(2);
        config.iterations_per_seed = 2;
        config.jobs = 1;
        config.oracle_jobs = 1;
        run_campaign_with_journal(&corpus::builtin()[..2], &config, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        text
    })
}

/// A real store over three built-in seeds, kept in memory: its manifest
/// text and its entry files, to write out per case.
struct Reference {
    manifest: String,
    entries: Vec<(OsString, Vec<u8>)>,
}

fn reference_store() -> &'static Reference {
    static STORE: OnceLock<Reference> = OnceLock::new();
    STORE.get_or_init(|| {
        let dir = scratch();
        let mut store = jcorpus::Store::init(&dir).unwrap();
        corpus::import_seeds(
            &mut store,
            &corpus::builtin()[..3],
            jcorpus::Provenance::Builtin,
        )
        .unwrap();
        store.save().unwrap();
        let reference = Reference {
            manifest: std::fs::read_to_string(dir.join("manifest.jsonl")).unwrap(),
            entries: std::fs::read_dir(dir.join("entries"))
                .unwrap()
                .map(|file| {
                    let file = file.unwrap();
                    (file.file_name(), std::fs::read(file.path()).unwrap())
                })
                .collect(),
        };
        std::fs::remove_dir_all(&dir).ok();
        reference
    })
}

fn manifest_text() -> String {
    reference_store().manifest.clone()
}

/// Opens a copy of the reference store whose manifest is `manifest`.
fn open_store_with(manifest: &str) -> Result<usize, String> {
    let dir = scratch();
    let entries = dir.join("entries");
    std::fs::create_dir_all(&entries).unwrap();
    for (name, bytes) in &reference_store().entries {
        std::fs::write(entries.join(name), bytes).unwrap();
    }
    std::fs::write(dir.join("manifest.jsonl"), manifest).unwrap();
    let result = jcorpus::Store::open(&dir).map(|s| s.entries().len());
    std::fs::remove_dir_all(&dir).ok();
    result
}

fn read_journal_text(text: &str) -> Result<usize, String> {
    let dir = scratch();
    let path = dir.join("journal.jsonl");
    std::fs::write(&path, text).unwrap();
    let result = read_journal(&path).map(|c| c.records.len());
    std::fs::remove_dir_all(&dir).ok();
    result
}

/// `text` cut at a random character boundary.
fn truncate(text: &str, rng: &mut SmallRng) -> String {
    let mut cut = rng.gen_range(0..text.len());
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    text[..cut].to_string()
}

/// Random bytes biased towards JSON punctuation, with at least one
/// character that cannot start a JSON document.
fn garbage(rng: &mut SmallRng) -> String {
    const ALPHABET: &[u8] = b"{}[]\":,0123456789.-+eE truefalsnul\\\n\t\x01\xff";
    let len = rng.gen_range(1..200);
    let mut bytes: Vec<u8> = (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect();
    let at = rng.gen_range(0..bytes.len());
    bytes[at] = b'#';
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A JSON value nested `depth` levels deep, of arrays or of objects.
fn deep(depth: usize, rng: &mut SmallRng) -> String {
    let (open, close) = if rng.gen_range(0..2) == 0 {
        ("[", "]")
    } else {
        ("{\"a\":", "}")
    };
    // Unclosed half the time: the parser must stop at the limit either way.
    let tail = if rng.gen_range(0..2) == 0 {
        format!("0{}", close.repeat(depth))
    } else {
        String::new()
    };
    format!("{}{tail}", open.repeat(depth))
}

fn deep_depth(rng: &mut SmallRng) -> usize {
    if rng.gen_range(0..5) == 0 {
        rng.gen_range(10_000..200_000)
    } else {
        rng.gen_range(MAX_JSON_DEPTH + 1..MAX_JSON_DEPTH * 4)
    }
}

/// Splices `line` into `text` as a new line before its last line, so a
/// decoder cannot excuse it as a torn tail.
fn splice_before_last(text: &str, line: &str) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let at = lines.len().saturating_sub(1).max(1);
    lines.insert(at, line);
    lines.join("\n") + "\n"
}

#[test]
fn reference_inputs_decode() {
    assert_eq!(read_journal_text(journal_text()), Ok(2));
    assert_eq!(open_store_with(&manifest_text()), Ok(3));
    assert!(CampaignSpec::from_json(SPEC).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A cut journal or manifest loses at most its torn tail; a cut spec
    /// is an error.
    #[test]
    fn truncated_inputs_are_errors_or_prefixes(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let journal = truncate(journal_text(), &mut rng);
        match read_journal_text(&journal) {
            Ok(records) => prop_assert!(records <= 2),
            Err(e) => prop_assert!(!e.is_empty()),
        }
        let manifest = truncate(&manifest_text(), &mut rng);
        match open_store_with(&manifest) {
            Ok(entries) => prop_assert!(entries <= 3),
            Err(e) => prop_assert!(!e.is_empty()),
        }
        let spec = truncate(SPEC, &mut rng);
        prop_assert!(CampaignSpec::from_json(&spec).is_err());
    }

    /// Garbage is an error everywhere: as a whole input, and for the
    /// journal and manifest also as a line before their last one.
    #[test]
    fn garbage_inputs_are_errors(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let junk = garbage(&mut rng);
        let line = junk.replace('\n', " ");
        prop_assert!(read_journal_text(&junk).is_err());
        prop_assert!(read_journal_text(&splice_before_last(journal_text(), &line)).is_err());
        prop_assert!(open_store_with(&junk).is_err());
        prop_assert!(open_store_with(&splice_before_last(&manifest_text(), &line)).is_err());
        prop_assert!(CampaignSpec::from_json(&junk).is_err());
    }

    /// Nesting past the parsers' depth limit is an error, never a stack
    /// overflow.
    #[test]
    fn deep_inputs_are_errors(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let depth = deep_depth(&mut rng);
        let nested = deep(depth, &mut rng);
        prop_assert!(read_journal_text(&nested).is_err());
        prop_assert!(read_journal_text(&splice_before_last(journal_text(), &nested)).is_err());
        prop_assert!(open_store_with(&nested).is_err());
        prop_assert!(open_store_with(&splice_before_last(&manifest_text(), &nested)).is_err());
        prop_assert!(CampaignSpec::from_json(&nested).is_err());
        let field = format!("{{\"rounds\":{nested}}}");
        prop_assert!(CampaignSpec::from_json(&field).is_err());
    }
}
