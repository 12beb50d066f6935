//! FNV-constant drift.
//!
//! The workspace hashes with FNV-1a in several places; the offset
//! basis and prime must live behind `loom::util::fnv1a` (plus the
//! historical copy in `lsm::bloom`), not be re-inlined per call site.
//! This pass flags any numeric literal equal to either constant
//! outside the allow-listed homes — including in test code, where a
//! fresh inline copy is just as prone to silent divergence.

use crate::{Rule, SourceFile, TokKind, Violation};

/// Paths (prefixes) allowed to spell the constants out.
const ALLOWED: &[&str] = &[
    "crates/loom/src/util.rs",
    "crates/lsm/src/bloom.rs",
    "crates/shims/",
    // The lint itself must spell the constants to recognize them.
    "crates/lint/",
    // The cross-crate equivalence test pins the reference vectors.
    "tests/fnv.rs",
    // The benchmark oracle's record digest borrows the prime for a
    // word-wise multiset hash; it is not FNV-1a, is never compared with
    // an engine hash, and lives in the frozen `benchmark/` tree.
    "benchmark/src/oracle.rs",
];

/// Parses an integer literal to its value: strips `_` separators and
/// integer-width suffixes, then reads hex or decimal. Comparing values
/// (not spellings) catches zero-padded forms like `0x0000_0100_0000_01b3`.
fn literal_value(text: &str) -> Option<u128> {
    let mut s: String = text.chars().filter(|c| *c != '_').collect();
    s.make_ascii_lowercase();
    for suffix in ["usize", "u128", "i128", "u64", "i64", "u32", "u16", "u8"] {
        if let Some(stripped) = s.strip_suffix(suffix) {
            s = stripped.to_string();
            break;
        }
    }
    if let Some(hex) = s.strip_prefix("0x") {
        u128::from_str_radix(hex, 16).ok()
    } else if s.chars().all(|c| c.is_ascii_digit()) && !s.is_empty() {
        s.parse().ok()
    } else {
        None
    }
}

/// The FNV-1a 64-bit offset basis and prime.
const BANNED: &[u128] = &[0xcbf2_9ce4_8422_2325, 0x100_0000_01b3];

/// Flags inline FNV constants outside the canonical homes.
pub fn check(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        if ALLOWED.iter().any(|p| f.path.starts_with(p)) {
            continue;
        }
        for t in f.code_toks() {
            if t.kind == TokKind::Num && literal_value(&t.text).is_some_and(|v| BANNED.contains(&v))
            {
                out.push(Violation {
                    file: f.path.clone(),
                    line: t.line,
                    rule: Rule::FnvDrift,
                    message: format!(
                        "inline FNV-1a constant `{}`; use `loom::util::fnv1a` (or \
                         `loom::util::Fnv1a` for streaming) instead of re-deriving the hash",
                        t.text
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    #[test]
    fn inline_constants_are_flagged_in_code_and_tests() {
        let f = SourceFile::from_text(
            "crates/telemetry/src/rocksdb.rs",
            "fn mix(h: u64) -> u64 { h ^ 0xcbf2_9ce4_8422_2325u64 }\n\
             #[cfg(test)]\nmod tests {\n    const P: u64 = 1099511628211;\n}\n",
        );
        let v = check(&[f]);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == Rule::FnvDrift));
    }

    #[test]
    fn hex_prime_with_separators_is_flagged() {
        let f = SourceFile::from_text(
            "crates/loom/src/net/mod.rs",
            "fn fp(b: &[u8]) -> u64 { let p = 0x0000_0100_0000_01b3u64; p }\n",
        );
        assert_eq!(check(&[f]).len(), 1);
    }

    #[test]
    fn canonical_homes_are_allowed() {
        for path in [
            "crates/loom/src/util.rs",
            "crates/lsm/src/bloom.rs",
            "crates/shims/ahash/src/lib.rs",
        ] {
            let f = SourceFile::from_text(
                path,
                "const OFFSET: u64 = 0xcbf29ce484222325;\nconst PRIME: u64 = 0x100000001b3;\n",
            );
            assert!(check(&[f]).is_empty(), "{path} should be allowed");
        }
    }

    #[test]
    fn unrelated_numbers_are_clean() {
        let f = SourceFile::from_text(
            "crates/loom/src/engine.rs",
            "const N: u64 = 1_099_511_627_776; // 1 TiB, not the FNV prime\n",
        );
        assert!(check(&[f]).is_empty());
    }
}
