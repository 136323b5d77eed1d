//! fs-analyze: token-level static analysis for the FlashSparse workspace.
//!
//! Unlike a lint pass that matches substrings of raw lines, everything here is built on a real Rust lexer ([`lexer`]):
//! comments, string literals, raw strings, and char literals are
//! tokenized exactly, so a banned pattern inside a doc comment or a
//! string can never fire a rule, and rules can reason about token
//! structure (`.unwrap()` as four tokens, not a substring).
//!
//! Two layers sit on top of the lexer:
//!
//! - [`model::FileModel`] — a per-file semantic view: code tokens with
//!   comments/tests stripped but line-mapped, `// lint: …` annotation
//!   lookup, receiver-path and brace-matching helpers.
//! - [`workspace::Workspace`] — the cross-file pass running five
//!   analyses: lock-order cycles ([`locks`]), atomic-ordering audit
//!   ([`atomics`]), protocol exhaustiveness ([`protocol`]), trace-site
//!   consistency ([`tracecheck`]) and counter parity ([`counters`]) —
//!   plus the five original lint rules re-implemented on tokens
//!   ([`lint`]).
//!
//! Findings are [`diag::Diagnostic`]s with machine-readable JSON export
//! (via `fs_trace::export::JsonWriter`) and a committed-baseline gate
//! ([`baseline`]) so CI fails on *new* findings and on *stale* baseline
//! entries, without pre-existing debt blocking unrelated changes.

pub mod atomics;
pub mod baseline;
pub mod counters;
pub mod diag;
pub mod json;
pub mod lexer;
pub mod lint;
pub mod locks;
pub mod model;
pub mod protocol;
pub mod tracecheck;
pub mod workspace;

#[cfg(test)]
mod tests {
    // Lines a substring matcher over raw text flags although the banned
    // pattern is not code: each case shows the pattern present in the
    // line and the token-backed rule staying silent on it.
    mod legacy_false_positives {
        use std::path::Path;

        use crate::lint::{lint_source, FileClass};

        #[test]
        fn word_in_string_literal() {
            let line = "let msg = \"an unsafe operation was rejected\";";
            assert!(line.contains("unsafe"));
            let d = lint_source(Path::new("crates/gnn/src/x.rs"), line, FileClass::Lib);
            assert!(d.is_empty(), "token rule must not fire inside a string: {d:?}");
        }

        #[test]
        fn cast_in_doc_comment() {
            let line = "/// Truncates with `x as u32` semantics before staging.";
            assert!(line.contains("as u32"));
            let src = format!("{line}\nfn f() {{}}\n");
            let d = lint_source(Path::new("crates/tcu/src/x.rs"), &src, FileClass::KernelLib);
            assert!(d.is_empty(), "token rule must not fire in a doc comment: {d:?}");
        }

        #[test]
        fn catch_unwind_in_raw_string() {
            let line = "let snippet = r#\"std::panic::catch_unwind(run)\"#;";
            assert!(line.contains("catch_unwind"));
            let d = lint_source(Path::new("crates/serve/src/x.rs"), line, FileClass::Lib);
            assert!(d.is_empty(), "token rule must not fire in a raw string: {d:?}");
        }

        #[test]
        fn unwrap_in_string_vs_real_unwrap() {
            let in_string = "let help = \"retry instead of .unwrap() here\";";
            assert!(in_string.contains(".unwrap()"));
            let d = lint_source(Path::new("crates/format/src/x.rs"), in_string, FileClass::Lib);
            assert!(d.is_empty(), "{d:?}");
            // The same file with a *real* unwrap still gets caught.
            let real = "let v = o.unwrap();";
            let d = lint_source(Path::new("crates/format/src/x.rs"), real, FileClass::Lib);
            assert_eq!(d.len(), 1);
        }

        #[test]
        fn annotation_marker_inside_string_no_longer_annotates() {
            // A raw-line `contains(marker)` check would let a marker spelled
            // inside a string literal suppress the rule on that line.
            let fake = "let s = \"lint: allow-panic\"; let v = o.unwrap();";
            let d = lint_source(Path::new("crates/format/src/x.rs"), fake, FileClass::Lib);
            assert_eq!(d.len(), 1, "string-literal marker must not annotate: {d:?}");
        }
    }
}
