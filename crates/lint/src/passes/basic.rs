//! The original PR 5 rules, ported from line matching onto the token
//! stream. The rule *logic* is unchanged; the port fixes the false
//! positives/negatives the line-based matcher had inside string
//! literals, block comments, and after a `#[cfg(test)]` module (which
//! the old scanner treated as extending to end-of-file).

use std::collections::BTreeMap;

use crate::{Rule, SourceFile, Violation};

/// Rule 1: every `unsafe` site carries a SAFETY argument.
///
/// Sites are found by token: `unsafe` followed by `{` (block), `impl`
/// (impl), or `fn` (declaration). Blocks and impls need a `// SAFETY:`
/// trailing the line or in the annotation block above; `unsafe fn`
/// declarations need a `# Safety` doc section (or an explicit SAFETY
/// comment) because they document a contract for callers.
pub fn check_unsafe_safety(file: &SourceFile) -> Vec<Violation> {
    let toks = file.code_toks();
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        let Some(next) = toks.get(i + 1) else {
            continue;
        };
        let line = t.line;
        if next.is_punct('{') || next.is_ident("impl") {
            if !file.comment_carries(line, &["SAFETY:"]) {
                out.push(Violation {
                    file: file.path.clone(),
                    line,
                    rule: Rule::UnsafeSafety,
                    message: "unsafe block/impl without a preceding `// SAFETY:` comment"
                        .to_string(),
                });
            }
        } else if next.is_ident("fn") && !file.comment_carries(line, &["# Safety", "SAFETY:"]) {
            out.push(Violation {
                file: file.path.clone(),
                line,
                rule: Rule::UnsafeSafety,
                message: "unsafe fn without a `# Safety` doc section".to_string(),
            });
        }
    }
    out
}

/// Rule 2: `Ordering::SeqCst` in code must carry a nearby ordering
/// justification comment (same line or the annotation block above).
/// Both the historical `// Ordering:` spelling and the workspace-wide
/// `// ORDERING:` convention are accepted.
pub fn check_seqcst(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut last_line = 0;
    for t in file.code_toks() {
        if !t.is_ident("SeqCst") || t.line == last_line {
            continue;
        }
        last_line = t.line;
        if !file.comment_carries(t.line, &["ORDERING:", "Ordering:"]) {
            out.push(Violation {
                file: file.path.clone(),
                line: t.line,
                rule: Rule::SeqCstJustification,
                message: "Ordering::SeqCst without an `// ORDERING:` justification comment \
                          (prefer Acquire/Release with a pairing argument)"
                    .to_string(),
            });
        }
    }
    out
}

/// True when `path` is inside the unwrap-ratcheted hot paths.
fn in_hot_path(path: &str) -> bool {
    path.starts_with("crates/loom/src/hybridlog")
        || path.starts_with("crates/loom/src/engine.rs")
        || path.starts_with("crates/loom/src/query")
        || path.starts_with("crates/loom/src/retention")
        || path.starts_with("crates/loom/src/net")
        || path.starts_with("crates/daemon/src/net.rs")
}

/// Rule 3: per-file unwrap/expect counts in the hot paths may not
/// exceed the baseline, and baseline entries must still exist in the
/// scanned tree (a deleted file leaves a stale allowance someone else
/// could silently spend). Counts non-test code only.
pub fn check_unwrap_ratchet(
    files: &[SourceFile],
    baseline: &BTreeMap<String, usize>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for file in files {
        if !in_hot_path(&file.path) || file.is_test_file() {
            continue;
        }
        let toks = file.code_toks();
        let mut count = 0;
        let mut last_line = 0;
        for (i, t) in toks.iter().enumerate() {
            let is_call = (t.is_ident("unwrap") || t.is_ident("expect"))
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
            if is_call && !file.line_is_test(t.line) {
                count += 1;
                last_line = t.line;
            }
        }
        let allowed = baseline.get(&file.path).copied().unwrap_or(0);
        if count > allowed {
            out.push(Violation {
                file: file.path.clone(),
                line: last_line,
                rule: Rule::UnwrapRatchet,
                message: format!(
                    "{count} unwrap()/expect() in hot-path code, baseline allows {allowed}; \
                     return an Error variant or document the invariant and bump \
                     crates/lint/unwrap_baseline.txt"
                ),
            });
        }
    }
    // Staleness: every baseline path must exist in the scanned set.
    // (Only meaningful on whole-repo scans; fixture slices opt out by
    // passing an empty baseline.)
    if !files.is_empty() && !baseline.is_empty() {
        for path in baseline.keys() {
            if !files.iter().any(|f| &f.path == path) {
                out.push(Violation {
                    file: "crates/lint/unwrap_baseline.txt".to_string(),
                    line: 1,
                    rule: Rule::UnwrapRatchet,
                    message: format!("stale baseline entry: `{path}` no longer exists in the tree"),
                });
            }
        }
    }
    out
}

/// Removed pre-builder entry points matched as `.name(` calls.
const REMOVED_CALLS: &[&str] = &[
    "indexed_scan",
    "indexed_scan_opt",
    "indexed_aggregate",
    "indexed_aggregate_opt",
    "bin_counts_opt",
];

/// Names of the retired record-at-a-time decode fork, matched as bare
/// identifiers (field, function or type, in any position).
const REMOVED_IDENTS: &[&str] = &["use_columnar", "decode_mode", "DecodeMode"];

/// Files that read sealed chunk summaries only through the in-memory
/// summary mirror: the query layer and the compactor. `SummaryCursor`
/// stays the loader (open, recovery) and the mirror's test reference.
const MIRROR_ONLY: &[&str] = &["crates/loom/src/query/", "crates/loom/src/engine.rs"];

/// Rule 4: no calls of the removed pre-builder query API, anywhere, and
/// no identifier of the retired chunk-decode fork.
///
/// The entry points were deleted after their deprecation cycle; there
/// is no definition file and no `#[allow(deprecated)]` opt-out any
/// more — any reappearance as a method call is a violation.
/// `.bin_counts(` was both the removed 3-arg entry point and the
/// builder terminal; only the call *with arguments* is banned.
///
/// The decode fork (a per-query switch between columnar and
/// record-at-a-time chunk decode) was collapsed at parity; its names may
/// not come back as a field, function or type. Nor may the per-query
/// chunk-index walk (`SummaryCursor`) come back to the query layer or
/// the compactor, which read the summary mirror.
pub fn check_deprecated_api(file: &SourceFile) -> Vec<Violation> {
    let toks = file.code_toks();
    let mut out = Vec::new();
    let mirror_only = MIRROR_ONLY.iter().any(|p| file.path.starts_with(p));
    for (i, t) in toks.iter().enumerate() {
        if crate::TokKind::Ident != t.kind {
            continue;
        }
        if mirror_only && t.text == "SummaryCursor" && !file.line_is_test(t.line) {
            out.push(Violation {
                file: file.path.clone(),
                line: t.line,
                rule: Rule::DeprecatedQueryApi,
                message: "queries and the compactor read sealed summaries from the shard's \
                          `SummaryMirror`, not by re-walking the chunk index"
                    .into(),
            });
            continue;
        }
        if REMOVED_IDENTS.contains(&t.text.as_str()) {
            out.push(Violation {
                file: file.path.clone(),
                line: t.line,
                rule: Rule::DeprecatedQueryApi,
                message: format!(
                    "`{}` belongs to the retired record-at-a-time decode fork; \
                     `columnar::decode_chunk` is the one way to read a chunk piece",
                    t.text
                ),
            });
            continue;
        }
        if i == 0 || !toks[i - 1].is_punct('.') || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        let banned = REMOVED_CALLS.contains(&t.text.as_str())
            || (t.text == "bin_counts" && !toks.get(i + 2).is_some_and(|n| n.is_punct(')')));
        if banned {
            out.push(Violation {
                file: file.path.clone(),
                line: t.line,
                rule: Rule::DeprecatedQueryApi,
                message: format!(
                    "call of removed pre-builder query API `{}`; \
                     `loom.query(..)` is the sole query entry point",
                    t.text
                ),
            });
        }
    }
    out
}

/// Rule 6: `Config { .. }` struct literals are confined to the config
/// module, so every construction goes through the validating builder
/// (or a preset that does).
///
/// Matches the `Config` identifier followed by `{`, excluding type
/// positions by the preceding token: `-> Config {` (return type before
/// the fn body), `struct` / `union` / `impl` / `for` / `dyn`
/// declarations. Longer names like `KvAppConfig` are distinct tokens
/// and never match.
pub fn check_config_literal(file: &SourceFile) -> Vec<Violation> {
    if file.path == "crates/loom/src/config.rs" {
        return Vec::new();
    }
    let toks = file.code_toks();
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("Config") || !toks.get(i + 1).is_some_and(|n| n.is_punct('{')) {
            continue;
        }
        let type_position = match i.checked_sub(1).map(|p| &toks[p]) {
            // `-> Config {` — the `>` of a thin arrow (`- >` as tokens).
            Some(p) if p.is_punct('>') => i >= 2 && toks[i - 2].is_punct('-'),
            Some(p) => {
                p.is_ident("struct")
                    || p.is_ident("union")
                    || p.is_ident("impl")
                    || p.is_ident("for")
                    || p.is_ident("dyn")
            }
            None => false,
        };
        if type_position {
            continue;
        }
        out.push(Violation {
            file: file.path.clone(),
            line: t.line,
            rule: Rule::ConfigLiteral,
            message: "direct `Config { .. }` literal bypasses validation; build configs \
                      with `Config::builder()` or a `Config::small`-style preset"
                .to_string(),
        });
    }
    out
}

/// The one file allowed CPU-specific code: the CRC32 kernels.
const ARCH_HOME: &str = "crates/loom/src/durability/format.rs";

/// Rule 7: `std::arch` / `core::arch` paths and `#[target_feature]`
/// attributes are confined to the CRC32 kernel file, so the workspace
/// keeps one unsafe, CPU-specific kernel behind one run-time dispatch
/// and everything else stays portable, safe Rust. (`#[cfg(target_feature
/// = ..)]` is a plain condition and is not matched.)
pub fn check_arch_confinement(file: &SourceFile) -> Vec<Violation> {
    if file.path == ARCH_HOME {
        return Vec::new();
    }
    let toks = file.code_toks();
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let arch_path = t.is_ident("arch")
            && i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && (toks[i - 3].is_ident("std") || toks[i - 3].is_ident("core"));
        let target_feature_attr = t.is_ident("target_feature")
            && i >= 2
            && toks[i - 1].is_punct('[')
            && toks[i - 2].is_punct('#');
        if arch_path || target_feature_attr {
            out.push(Violation {
                file: file.path.clone(),
                line: t.line,
                rule: Rule::ArchConfinement,
                message: format!(
                    "CPU-specific code (`{}`) outside {ARCH_HOME}; the CRC32 kernel there is \
                     the one place intrinsics and run-time feature dispatch live",
                    if arch_path {
                        "std::arch"
                    } else {
                        "#[target_feature]"
                    }
                ),
            });
        }
    }
    out
}

/// Rule 5: each failpoint site name has exactly one owner.
///
/// Owners are (a) a `const NAME: &str = ".."` in `loom/src/fault.rs`,
/// or (b) literal use as the argument of `failpoint(` /
/// `fault::check(` / `fault::configure(` within one non-test source
/// file (several call sites in the same file are one owner — e.g.
/// `lsm::sstable_write` is legitimately checked on both the data and
/// index write of one sstable build). Test files and `#[cfg(test)]`
/// regions arm existing sites, they never own one. Site names follow
/// the `component::site` convention; other literals don't count.
pub fn check_failpoint_uniqueness(files: &[SourceFile]) -> Vec<Violation> {
    // site name -> owner label -> first line seen
    let mut owners: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    for file in files {
        if file.is_test_file() {
            continue;
        }
        let is_fault_registry = file.path == "crates/loom/src/fault.rs";
        if is_fault_registry {
            for c in &file.items.consts {
                if !c.type_text.contains("str")
                    || !c.value_text.contains("::")
                    || file.line_is_test(c.line)
                {
                    continue;
                }
                owners
                    .entry(c.value_text.clone())
                    .or_default()
                    .entry(format!("const {} in {}", c.name, file.path))
                    .or_insert(c.line);
            }
            continue;
        }
        let toks = file.code_toks();
        for (i, t) in toks.iter().enumerate() {
            let is_site_call = (t.is_ident("failpoint")
                || ((t.is_ident("check") || t.is_ident("configure"))
                    && i >= 3
                    && toks[i - 1].is_punct(':')
                    && toks[i - 2].is_punct(':')
                    && toks[i - 3].is_ident("fault")))
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
            if !is_site_call || file.line_is_test(t.line) {
                continue;
            }
            // The site name is a `component::site` string literal among
            // the call's leading tokens.
            for a in toks.iter().skip(i + 2).take(3) {
                if a.kind == crate::TokKind::Str && a.text.contains("::") {
                    owners
                        .entry(a.text.clone())
                        .or_default()
                        .entry(format!("literal in {}", file.path))
                        .or_insert(a.line);
                    break;
                }
            }
        }
    }
    let mut out = Vec::new();
    for (site, defs) in owners {
        if defs.len() > 1 {
            let where_ = defs
                .iter()
                .map(|(owner, line)| format!("{owner}:{line}"))
                .collect::<Vec<_>>()
                .join(", ");
            let (first_owner, first_line) = defs.iter().next().expect("len checked > 1");
            let file = first_owner
                .rsplit(' ')
                .next()
                .unwrap_or(first_owner)
                .to_string();
            out.push(Violation {
                file,
                line: *first_line,
                rule: Rule::FailpointUniqueness,
                message: format!("failpoint site name \"{site}\" has multiple owners: {where_}"),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn f(path: &str, text: &str) -> SourceFile {
        SourceFile::from_text(path, text)
    }

    fn rules(v: &[Violation]) -> Vec<Rule> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn unsafe_without_safety_is_flagged() {
        let bad = f("a.rs", "fn g() {\n    unsafe { do_it(); }\n}\n");
        assert_eq!(rules(&check_unsafe_safety(&bad)), vec![Rule::UnsafeSafety]);

        let good = f(
            "a.rs",
            "fn g() {\n    // SAFETY: pointer valid per protocol.\n    unsafe { do_it(); }\n}\n",
        );
        assert!(check_unsafe_safety(&good).is_empty());

        // A multi-line SAFETY comment still counts.
        let multi = f(
            "a.rs",
            "// SAFETY: the writer owns this range until the commit\n// word publishes it.\nunsafe impl Sync for X {}\n",
        );
        assert!(check_unsafe_safety(&multi).is_empty());

        // `unsafe` only inside a comment or string is not a site.
        let comment = f("a.rs", "// unsafe { not real }\n");
        assert!(check_unsafe_safety(&comment).is_empty());
        let string = f("a.rs", "let s = \"unsafe { fake }\";\n");
        assert!(check_unsafe_safety(&string).is_empty());
        let raw = f("a.rs", "let s = r#\"unsafe impl Sync\"#;\n");
        assert!(check_unsafe_safety(&raw).is_empty());
    }

    #[test]
    fn unsafe_impl_and_fn_variants() {
        let bad_impl = f("a.rs", "unsafe impl Sync for X {}\n");
        assert_eq!(
            rules(&check_unsafe_safety(&bad_impl)),
            vec![Rule::UnsafeSafety]
        );

        let bad_fn = f("a.rs", "pub unsafe fn from_ptr(p: *mut u8) {}\n");
        assert_eq!(
            rules(&check_unsafe_safety(&bad_fn)),
            vec![Rule::UnsafeSafety]
        );

        let good_fn = f(
            "a.rs",
            "/// Docs.\n///\n/// # Safety\n///\n/// `p` must be valid.\npub unsafe fn from_ptr(p: *mut u8) {}\n",
        );
        assert!(check_unsafe_safety(&good_fn).is_empty());
    }

    #[test]
    fn unsafe_inside_block_comment_is_ignored() {
        // The classic line-based false positive: block comments.
        let block = f("a.rs", "/*\nunsafe { not code }\n*/\nfn ok() {}\n");
        assert!(check_unsafe_safety(&block).is_empty());
    }

    #[test]
    fn seqcst_needs_justification() {
        let bad = f("a.rs", "flag.store(true, Ordering::SeqCst);\n");
        assert_eq!(rules(&check_seqcst(&bad)), vec![Rule::SeqCstJustification]);

        let good = f(
            "a.rs",
            "// ORDERING: total order needed across three flags; see DESIGN.md.\nflag.store(true, Ordering::SeqCst);\n",
        );
        assert!(check_seqcst(&good).is_empty());

        // The historical lowercase spelling still counts.
        let legacy = f(
            "a.rs",
            "flag.store(true, Ordering::SeqCst); // Ordering: justified here.\n",
        );
        assert!(check_seqcst(&legacy).is_empty());

        // Mentions in comments or strings alone don't trip the rule.
        let comment = f("a.rs", "// SeqCst buys nothing here.\n");
        assert!(check_seqcst(&comment).is_empty());
        let string = f("a.rs", "let s = \"Ordering::SeqCst\";\n");
        assert!(check_seqcst(&string).is_empty());
    }

    #[test]
    fn unwrap_ratchet_counts_against_baseline() {
        let path = "crates/loom/src/query/executor.rs";
        let hot = f(
            path,
            "fn a() { x.unwrap(); }\nfn b() { y.expect(\"inv\"); }\n",
        );
        let empty = BTreeMap::new();
        let v = check_unwrap_ratchet(std::slice::from_ref(&hot), &empty);
        assert_eq!(rules(&v), vec![Rule::UnwrapRatchet]);
        assert!(v[0].message.contains("2 unwrap"), "{}", v[0].message);

        let mut baseline = BTreeMap::new();
        baseline.insert(path.to_string(), 2);
        assert!(check_unwrap_ratchet(&[hot], &baseline).is_empty());
    }

    #[test]
    fn unwrap_ratchet_ignores_tests_and_cold_paths() {
        let test_code = f(
            "crates/loom/src/query/executor.rs",
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n",
        );
        let cold = f("crates/daemon/src/bin/loomd.rs", "fn a() { x.unwrap(); }\n");
        let empty = BTreeMap::new();
        assert!(check_unwrap_ratchet(&[test_code, cold], &empty).is_empty());
    }

    #[test]
    fn unwrap_after_test_module_still_counts() {
        // Brace-matched test regions: the old scanner exempted
        // everything after `#[cfg(test)]` to end-of-file.
        let path = "crates/loom/src/query/executor.rs";
        let hot = f(
            path,
            "#[cfg(test)]\nmod tests {\n    fn t() { a.unwrap(); }\n}\nfn real() { b.unwrap(); }\n",
        );
        let empty = BTreeMap::new();
        let v = check_unwrap_ratchet(&[hot], &empty);
        assert_eq!(rules(&v), vec![Rule::UnwrapRatchet]);
        assert!(v[0].message.contains("1 unwrap"), "{}", v[0].message);
    }

    #[test]
    fn stale_unwrap_baseline_entry_is_flagged() {
        let files = [f("crates/loom/src/engine.rs", "fn a() {}\n")];
        let mut baseline = BTreeMap::new();
        baseline.insert("crates/loom/src/gone.rs".to_string(), 3);
        let v = check_unwrap_ratchet(&files, &baseline);
        assert_eq!(rules(&v), vec![Rule::UnwrapRatchet]);
        assert!(v[0].message.contains("stale baseline"), "{}", v[0].message);
    }

    #[test]
    fn removed_api_flagged_with_no_opt_out() {
        let bad = f(
            "crates/x.rs",
            "let r = loom.indexed_scan(s, i, r, vr, cb);\n",
        );
        assert_eq!(
            rules(&check_deprecated_api(&bad)),
            vec![Rule::DeprecatedQueryApi]
        );

        // 3-arg bin_counts was removed; the builder terminal was not.
        let dep = f("crates/x.rs", "let c = loom.bin_counts(s, i, r);\n");
        assert_eq!(
            rules(&check_deprecated_api(&dep)),
            vec![Rule::DeprecatedQueryApi]
        );
        let builder = f("crates/x.rs", "let c = q.range(r).bin_counts()?;\n");
        assert!(check_deprecated_api(&builder).is_empty());

        // `#[allow(deprecated)]` no longer buys an exemption — the
        // methods are gone, not deprecated.
        let marked = f(
            "crates/x.rs",
            "#[allow(deprecated)]\nfn equiv() { loom.indexed_scan(s, i, r, vr, cb); }\n",
        );
        assert_eq!(
            rules(&check_deprecated_api(&marked)),
            vec![Rule::DeprecatedQueryApi]
        );

        // A mention in a doc comment or a string is not a call — the
        // old line matcher got both wrong.
        let doc = f("crates/x.rs", "/// replaced `.indexed_scan(..)` calls.\n");
        assert!(check_deprecated_api(&doc).is_empty());
        let s = f("crates/x.rs", "let s = \".indexed_scan(a)\";\n");
        assert!(check_deprecated_api(&s).is_empty());
    }

    #[test]
    fn retired_decode_fork_names_flagged_in_any_position() {
        // Seeded violations: the field, the planner function, the enum.
        for bad in [
            "let o = QueryOptions { use_columnar: false, ..d };\n",
            "opts.use_columnar = false;\n",
            "let mode = planner::decode_mode(meta, opts);\n",
            "pub(crate) enum DecodeMode { Columnar(ExtractorDesc), RecordAtATime }\n",
            "match mode { DecodeMode::RecordAtATime => walk(), _ => decode() }\n",
        ] {
            let v = check_deprecated_api(&f("crates/loom/src/query/planner.rs", bad));
            assert_eq!(rules(&v), vec![Rule::DeprecatedQueryApi], "{bad}");
            assert!(v[0].message.contains("decode fork"), "{}", v[0].message);
        }

        // The hidden no-op the frozen benchmark still calls is allowed,
        // and so are mentions in comments and strings.
        let ok = f(
            "benchmark/src/layers.rs",
            "// was: use_columnar\nlet o = defaults.with_columnar(false); let s = \"decode_mode\";\n",
        );
        assert!(check_deprecated_api(&ok).is_empty());
    }

    #[test]
    fn summary_cursor_flagged_only_where_the_mirror_serves() {
        let walk = "let mut cursor = SummaryCursor::new(&view.chunk, start);\n";
        for path in [
            "crates/loom/src/query/planner.rs",
            "crates/loom/src/query/aggregate.rs",
            "crates/loom/src/engine.rs",
        ] {
            let v = check_deprecated_api(&f(path, walk));
            assert_eq!(rules(&v), vec![Rule::DeprecatedQueryApi], "{path}");
            assert!(v[0].message.contains("SummaryMirror"), "{}", v[0].message);
        }
        // The loader and the reference walk keep it.
        for path in [
            "crates/loom/src/chunk_index.rs",
            "crates/loom/src/durability/recovery.rs",
            "crates/loom/tests/summary_mirror.rs",
        ] {
            assert!(check_deprecated_api(&f(path, walk)).is_empty(), "{path}");
        }
    }

    #[test]
    fn config_literal_flagged_outside_config_module() {
        let bad = f(
            "crates/loom/src/engine.rs",
            "let c = Config { dir: d.into(), ..base };\n",
        );
        assert_eq!(
            rules(&check_config_literal(&bad)),
            vec![Rule::ConfigLiteral]
        );

        // Path-qualified literals are still literals.
        let qualified = f(
            "crates/x/tests/t.rs",
            "let c = loom::Config { dir, ..b };\n",
        );
        assert_eq!(
            rules(&check_config_literal(&qualified)),
            vec![Rule::ConfigLiteral]
        );

        // The config module itself may construct its own type.
        let home = f(
            "crates/loom/src/config.rs",
            "        Config {\n            dir: dir.into(),\n",
        );
        assert!(check_config_literal(&home).is_empty());
    }

    #[test]
    fn config_literal_ignores_types_and_other_configs() {
        // Return type followed by the fn body brace.
        let ret = f(
            "crates/loom/src/engine.rs",
            "fn shard_config(root: &Config, i: usize) -> Config {\n",
        );
        assert!(check_config_literal(&ret).is_empty());

        // Declarations are type positions, not literals.
        let decls = f(
            "crates/x.rs",
            "pub struct Config {\nimpl Config {\nimpl Default for Config {\n",
        );
        assert!(check_config_literal(&decls).is_empty());

        // Longer identifiers never match the whole word.
        let other = f(
            "crates/telemetry/src/kvapp.rs",
            "let config = KvAppConfig {\n    ops_per_tick: 1,\n};\n",
        );
        assert!(check_config_literal(&other).is_empty());

        // Builder calls are the sanctioned path.
        let builder = f(
            "crates/x.rs",
            "let c = Config::builder(dir).shards(4).build()?;\n",
        );
        assert!(check_config_literal(&builder).is_empty());
    }

    #[test]
    fn arch_code_flagged_outside_the_crc_kernel() {
        // Seeded violations: an intrinsics import, a qualified call, a
        // `core` path, and a target-feature attribute.
        for bad in [
            "use std::arch::x86_64::_mm_clmulepi64_si128;\n",
            "if std::arch::is_x86_feature_detected!(\"avx2\") { fast() }\n",
            "use core::arch::aarch64::*;\n",
            "#[target_feature(enable = \"avx2\")]\nfn fast() {}\n",
        ] {
            let v = check_arch_confinement(&f("crates/loom/src/query/columnar.rs", bad));
            assert_eq!(rules(&v), vec![Rule::ArchConfinement], "{bad}");
        }

        // The kernel file may; `cfg` conditions, other `arch` names,
        // comments and strings are not CPU-specific code.
        let home = f(
            ARCH_HOME,
            "use std::arch::x86_64::*;\n#[target_feature(enable = \"pclmulqdq\")]\nfn k() {}\n",
        );
        assert!(check_arch_confinement(&home).is_empty());
        for ok in [
            "#[cfg(target_arch = \"x86_64\")]\nfn a() {}\n",
            "#[cfg(target_feature = \"sse2\")]\nfn b() {}\n",
            "let arch = std::env::consts::ARCH;\n",
            "// std::arch is confined to the CRC kernel.\n",
            "let s = \"#[target_feature(enable = \\\"avx\\\")]\";\n",
        ] {
            let v = check_arch_confinement(&f("crates/loom/src/engine.rs", ok));
            assert!(v.is_empty(), "{ok}: {v:?}");
        }
    }

    #[test]
    fn failpoint_duplicate_owners_flagged() {
        // Two consts with the same string.
        let dup_consts = f(
            "crates/loom/src/fault.rs",
            "pub const A: &str = \"x::w\";\npub const B: &str = \"x::w\";\n",
        );
        let v = check_failpoint_uniqueness(&[dup_consts]);
        assert_eq!(rules(&v), vec![Rule::FailpointUniqueness]);

        // A literal colliding with a const.
        let consts = f(
            "crates/loom/src/fault.rs",
            "pub const A: &str = \"x::w\";\n",
        );
        let lit = f("crates/lsm/src/wal.rs", "crate::failpoint(\"x::w\")?;\n");
        let v = check_failpoint_uniqueness(&[consts, lit]);
        assert_eq!(rules(&v), vec![Rule::FailpointUniqueness]);

        // The same literal in two different files.
        let a = f("crates/lsm/src/wal.rs", "crate::failpoint(\"y::z\")?;\n");
        let b = f(
            "crates/lsm/src/sstable.rs",
            "crate::failpoint(\"y::z\")?;\n",
        );
        let v = check_failpoint_uniqueness(&[a, b]);
        assert_eq!(rules(&v), vec![Rule::FailpointUniqueness]);
    }

    #[test]
    fn failpoint_same_file_call_sites_are_one_owner() {
        let two_calls = f(
            "crates/lsm/src/sstable.rs",
            "crate::failpoint(\"lsm::sstable_write\")?;\ncrate::failpoint(\"lsm::sstable_write\")?;\n",
        );
        let consts = f(
            "crates/loom/src/fault.rs",
            "pub const A: &str = \"x::w\";\n",
        );
        assert!(check_failpoint_uniqueness(&[two_calls, consts]).is_empty());

        // Test files arming existing sites don't count as owners.
        let arm = f(
            "crates/lsm/tests/failpoints.rs",
            "fault::configure(\"x::w\", spec);\n",
        );
        let use_site = f("crates/lsm/src/wal.rs", "crate::failpoint(\"x::w\")?;\n");
        assert!(check_failpoint_uniqueness(&[arm, use_site]).is_empty());
    }
}
