//! Token-accurate repository invariant lint for the unsafe seqlock /
//! shared-log cores.
//!
//! This is deliberately *not* a compiler plugin: every rule is a
//! reviewable invariant applied to a lexed token stream ([`lexer`]) and
//! a brace-matched item index ([`items`]) — accurate about comments,
//! strings, raw strings, char literals, and `#[cfg(test)]` region
//! extents, but with no type information. Rule classes:
//!
//! **Ported line rules** ([`passes::basic`]):
//! 1. `unsafe` needs `// SAFETY:` (blocks/impls) or `# Safety` (fns).
//! 2. `Ordering::SeqCst` needs an `// ORDERING:` justification.
//! 3. unwrap ratchet against `crates/lint/unwrap_baseline.txt` in the
//!    hot paths; the baseline itself is checked for stale entries.
//! 4. no removed pre-builder query API and no name of the retired
//!    chunk-decode fork, no opt-out.
//! 5. failpoint site-name uniqueness (one owner per name).
//! 6. no `Config { .. }` literals outside the config module.
//! 7. `std::arch` and `#[target_feature]` only in the CRC32 kernel
//!    file (`durability/format.rs`), whose `unsafe` blocks rule 1
//!    already holds to `// SAFETY:` comments.
//!
//! **Semantic passes**:
//! * [`passes::lock_order`] — extracts nested `Mutex`/`RwLock` guard
//!   acquisitions per function, resolves receivers to named lock
//!   fields, builds the cross-crate lock-order graph, fails on cycles,
//!   and keeps the committed dump (`results/lock_order.txt`) fresh. The
//!   static graph is validated dynamically by the `--cfg conc_check`
//!   runtime witness in `conc-check`'s `ordered` module.
//! * [`passes::atomics`] — per atomic field: Acquire loads need a
//!   Release-side partner, and `Relaxed` is suspect on fields that
//!   elsewhere use Acquire/Release, unless an `// ORDERING:` comment
//!   carries the op.
//! * [`passes::registry`] — failpoint names, `loom_*` metric names,
//!   manifest record tags and wire values must be unique, documented in
//!   DESIGN.md, and stable against the checked-in baselines
//!   (`crates/lint/{wire_tags,disk_tags}.txt`: values may be added,
//!   never renumbered; stale baseline entries are errors too).
//! * [`passes::errors`] — every `LoomError` variant is used outside its
//!   definition, and the scoped public fallible APIs carry `# Errors`
//!   docs naming real variants.
//! * [`passes::fnv`] — bans fresh inline FNV-1a constants so the shard
//!   router, schema fingerprint, and bloom hashes can never drift;
//!   `loom::util::fnv1a` is the one blessed implementation.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod items;
pub mod lexer;
pub mod passes;

pub use items::Items;
pub use lexer::{LexedFile, Tok, TokKind};

/// Which invariant a [`Violation`] broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `unsafe` block / impl / fn without a SAFETY argument.
    UnsafeSafety,
    /// `Ordering::SeqCst` without a justification comment.
    SeqCstJustification,
    /// unwrap/expect growth in hot paths beyond the baseline.
    UnwrapRatchet,
    /// Call of a removed pre-builder query entry point, or a name of the
    /// retired record-at-a-time decode fork.
    DeprecatedQueryApi,
    /// Failpoint site name owned by more than one definition site, or
    /// missing from DESIGN.md.
    FailpointUniqueness,
    /// `Config { .. }` struct literal outside the config module.
    ConfigLiteral,
    /// Lock-order graph cycle or stale committed dump.
    LockOrder,
    /// Unpaired Acquire load or suspect Relaxed without `// ORDERING:`.
    AtomicOrdering,
    /// Registry drift: renumbered/duplicated/undocumented/stale wire
    /// tags, disk tags, or metric names.
    Registry,
    /// Unused Error variant or missing/wrong `# Errors` docs.
    ErrorSurface,
    /// Inline FNV-1a constant outside the blessed implementations.
    FnvDrift,
    /// `std::arch` or `#[target_feature]` outside the CRC32 kernel file.
    ArchConfinement,
}

impl Rule {
    /// Stable kebab-case name (used by `--json` output).
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnsafeSafety => "unsafe-safety",
            Rule::SeqCstJustification => "seqcst-justification",
            Rule::UnwrapRatchet => "unwrap-ratchet",
            Rule::DeprecatedQueryApi => "deprecated-query-api",
            Rule::FailpointUniqueness => "failpoint-uniqueness",
            Rule::ConfigLiteral => "config-literal",
            Rule::LockOrder => "lock-order",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::Registry => "registry-consistency",
            Rule::ErrorSurface => "error-surface",
            Rule::FnvDrift => "fnv-drift",
            Rule::ArchConfinement => "arch-confinement",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One broken invariant at a specific line.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Repo-relative path (as given to the checker).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule class.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl Violation {
    /// One-line JSON object (`--json` output). Hand-rolled escaping —
    /// the lint has no dependencies by design.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            self.rule,
            esc(&self.file),
            self.line,
            esc(&self.message)
        )
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A source file handed to the checkers: repo-relative path plus the
/// lexed token stream and the brace-matched item index.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// Lexed tokens and per-line views.
    pub lex: LexedFile,
    /// Comment-filtered tokens; the ranges in [`Items`] index these.
    pub code: Vec<Tok>,
    /// Scanned items (fns, fields, enums, consts, test regions).
    pub items: Items,
}

impl SourceFile {
    /// Builds a source file from a path label and full text (test
    /// seeding convenience).
    pub fn from_text(path: &str, text: &str) -> Self {
        let lex = LexedFile::lex(text);
        let code: Vec<Tok> = lex
            .toks
            .iter()
            .filter(|t| !t.is_comment())
            .cloned()
            .collect();
        let items = items::scan_code(&code);
        SourceFile {
            path: path.to_string(),
            lex,
            code,
            items,
        }
    }

    /// Comment-filtered tokens; indices align with the body/signature
    /// ranges recorded in [`Items`].
    pub fn code_toks(&self) -> &[Tok] {
        &self.code
    }

    /// The crate this file belongs to (`crates/<name>/…`), or "".
    pub fn crate_name(&self) -> &str {
        self.path
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("")
    }

    /// True when the whole file is test or bench code by location.
    pub fn is_test_file(&self) -> bool {
        self.path.contains("/tests/") || self.path.contains("/benches/")
    }

    /// True when 1-based `line` is test code: a test file, or inside a
    /// brace-matched `#[cfg(test)]` / `#[test]` region.
    pub fn line_is_test(&self, line: usize) -> bool {
        self.is_test_file() || self.items.line_in_test(line)
    }

    /// True when the comment trailing 1-based `line`, or any comment in
    /// the contiguous annotation block above it, contains one of
    /// `needles`.
    pub fn comment_carries(&self, line: usize, needles: &[&str]) -> bool {
        let l0 = line.saturating_sub(1);
        let hit = |i: usize| {
            let c = &self.lex.line_comments[i];
            needles.iter().any(|n| c.contains(n))
        };
        if l0 < self.lex.line_comments.len() && hit(l0) {
            return true;
        }
        let mut i = l0;
        while i > 0 {
            i -= 1;
            if !self.lex.line_is_annotation[i] {
                return false;
            }
            if hit(i) {
                return true;
            }
        }
        false
    }
}

/// Checked-in baselines and reference docs the passes compare against.
/// `None` fields skip their checks (fixture tests exercise passes in
/// isolation; `lint_repo` loads everything).
#[derive(Debug, Clone, Default)]
pub struct Baselines {
    /// Per-file unwrap/expect allowance (`unwrap_baseline.txt`).
    pub unwrap: BTreeMap<String, usize>,
    /// Wire registry baseline (`wire_tags.txt`): name → value.
    pub wire_tags: Option<BTreeMap<String, u64>>,
    /// Disk registry baseline (`disk_tags.txt`): name → value.
    pub disk_tags: Option<BTreeMap<String, u64>>,
    /// Full DESIGN.md text, for documentation checks.
    pub design: Option<String>,
    /// Committed lock-order dump (`results/lock_order.txt`).
    pub lock_graph: Option<String>,
}

/// Parses a `<key> <count>` baseline (unwrap ratchet): `#` comments
/// and blanks ignored.
pub fn parse_baseline(text: &str) -> BTreeMap<String, usize> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        if let (Some(path), Some(count)) = (it.next(), it.next()) {
            if let Ok(n) = count.parse() {
                map.insert(path.to_string(), n);
            }
        }
    }
    map
}

/// Parses a `<name> <value>` tag baseline (wire/disk registries).
pub fn parse_tag_baseline(text: &str) -> BTreeMap<String, u64> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        if let (Some(name), Some(value)) = (it.next(), it.next()) {
            if let Ok(v) = value.parse() {
                map.insert(name.to_string(), v);
            }
        }
    }
    map
}

/// Runs every rule over the given files with the given baselines.
/// Returned violations are sorted by file and line.
pub fn check_all(files: &[SourceFile], baselines: &Baselines) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        out.extend(passes::basic::check_unsafe_safety(f));
        out.extend(passes::basic::check_seqcst(f));
        out.extend(passes::basic::check_deprecated_api(f));
        out.extend(passes::basic::check_config_literal(f));
        out.extend(passes::basic::check_arch_confinement(f));
    }
    out.extend(passes::basic::check_unwrap_ratchet(
        files,
        &baselines.unwrap,
    ));
    out.extend(passes::basic::check_failpoint_uniqueness(files));
    out.extend(passes::lock_order::check(files, baselines));
    out.extend(passes::atomics::check(files));
    out.extend(passes::registry::check(files, baselines));
    out.extend(passes::errors::check(files));
    out.extend(passes::fnv::check(files));
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// Loads every `.rs` file under `root` (skipping `target*`, hidden
/// directories, and `related`) into [`SourceFile`]s, sorted by path.
pub fn load_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    collect_rs(root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in &paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile::from_text(&rel, &std::fs::read_to_string(p)?));
    }
    Ok(files)
}

/// Loads the checked-in baselines and reference docs from `root`.
/// Missing baseline files become `None` (their checks are skipped);
/// a missing unwrap baseline is an empty (zero-allowance) map.
pub fn load_baselines(root: &Path) -> Baselines {
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).ok();
    Baselines {
        unwrap: read("crates/lint/unwrap_baseline.txt")
            .map(|t| parse_baseline(&t))
            .unwrap_or_default(),
        wire_tags: read("crates/lint/wire_tags.txt").map(|t| parse_tag_baseline(&t)),
        disk_tags: read("crates/lint/disk_tags.txt").map(|t| parse_tag_baseline(&t)),
        design: read("DESIGN.md"),
        lock_graph: read("results/lock_order.txt"),
    }
}

/// Scans the repository at `root` with every pass and the checked-in
/// baselines.
pub fn lint_repo(root: &Path) -> std::io::Result<Vec<Violation>> {
    let files = load_workspace(root)?;
    let baselines = load_baselines(root);
    Ok(check_all(&files, &baselines))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || name.starts_with("target") || name == "related" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_baseline_parses_names_and_values() {
        let map = parse_tag_baseline("# wire registry\nT_HELLO 1\nNackCode::Version 1\n\n");
        assert_eq!(map.get("T_HELLO"), Some(&1));
        assert_eq!(map.get("NackCode::Version"), Some(&1));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn comment_carries_sees_trailing_and_block_comments() {
        let f = SourceFile::from_text(
            "a.rs",
            "// ORDERING: pairs with the Release store in flush().\n\
             let v = flag.load(Ordering::Acquire);\n\
             let w = flag.load(Ordering::Acquire); // ORDERING: same pair.\n\
             let x = flag.load(Ordering::Acquire);\n",
        );
        assert!(f.comment_carries(2, &["ORDERING:"]));
        assert!(f.comment_carries(3, &["ORDERING:"]));
        assert!(!f.comment_carries(4, &["ORDERING:"]));
    }

    #[test]
    fn violation_json_escapes() {
        let v = Violation {
            file: "a\\b.rs".into(),
            line: 3,
            rule: Rule::Registry,
            message: "tag \"x\"\nrenumbered".into(),
        };
        let j = v.to_json();
        assert!(j.contains("\\\\b.rs"));
        assert!(j.contains("\\\"x\\\""));
        assert!(j.contains("\\n"));
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn repo_head_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let violations = lint_repo(&root).expect("repo scan must succeed");
        assert!(
            violations.is_empty(),
            "repository lint must be clean on HEAD:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
