//! The public-surface gate: a `pub fn` that no program calls fails.
//!
//! rustc's dead-code lint cannot see an unused `pub fn`, so this test
//! reads the workspace's `.rs` files as text and does the check by name.
//! It strips comments and the contents of string and char literals,
//! drops `use` / `pub use` declarations and every item marked
//! `#[cfg(test)]`, and skips every `tests/` directory. What is left of
//! the libraries, `src/`, `examples/` and `crates/bench` (its `benches/`,
//! the `pairs` runner and the e2e harness) is program text.
//!
//! A `pub fn` in program text outside `crates/shims` and the harness
//! fails unless its name occurs somewhere in program text other than at a
//! `fn` definition, or [`ALLOWLIST`] names it with a [`Reason`]. An
//! allowlist entry fails too once its function has a program caller or
//! no longer exists. The shims are neither checked nor read as callers:
//! they are dependencies of the workspace, never its callers.
//!
//! The scan is by name, so a dead function whose name a called function
//! shares (`new`, `len`) passes.

use std::collections::HashSet;
use std::path::Path;

/// Why a `pub fn` with no program caller stays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Reason {
    /// A fixture that other crates' tests import.
    TestSupport,
    /// A reference implementation that tests compare against.
    Oracle,
}

/// One allowlisted function: the file that defines it and its name.
struct Allow {
    file: &'static str,
    name: &'static str,
    reason: Reason,
}

const fn allow(file: &'static str, name: &'static str, reason: Reason) -> Allow {
    Allow { file, name, reason }
}

use Reason::{Oracle, TestSupport};

/// The `pub fn`s that stay without a program caller; the comment names
/// their users.
const ALLOWLIST: &[Allow] = &[
    // The small, fast trainer settings of the core, serve and root tests.
    allow("crates/core/src/config.rs", "quick_test", TestSupport),
    // `pipeline_equivalence.rs` reads the pipeline's stall counters.
    allow(
        "crates/core/src/trainer.rs",
        "sampler_pipeline",
        TestSupport,
    ),
    // The graph literal of the graph, nn, prop and sampler tests.
    allow("crates/graph/src/builder.rs", "from_edges", TestSupport),
    // Generator invariants checked by the graph and data proptests.
    allow("crates/graph/src/csr.rs", "is_symmetric", TestSupport),
    allow("crates/graph/src/csr.rs", "has_self_loops", TestSupport),
    // One graph behind the mmap backend, in the core and serve tests.
    allow(
        "crates/graph/src/store/mod.rs",
        "spill_to_temp",
        TestSupport,
    ),
    allow("crates/graph/src/store/mod.rs", "as_mmap", TestSupport),
    // Recomputes each shard's checksum against the manifest the writer
    // recorded: the store proptests' corruption check.
    allow("crates/graph/src/store/shard.rs", "verify_store", Oracle),
    // The matrix-materialising F1 the streaming `f1_micro_from_probs` and
    // the evaluation tests are pinned to.
    allow("crates/metrics/src/f1.rs", "binarize", Oracle),
    allow("crates/metrics/src/f1.rs", "argmax_onehot", Oracle),
    allow("crates/metrics/src/f1.rs", "f1_micro", Oracle),
    // The serial aggregation every propagation kernel is checked against.
    allow("crates/prop/src/kernels.rs", "aggregate_reference", Oracle),
    // The dashboard model check of the sampler proptests.
    allow(
        "crates/sampler/src/dashboard.rs",
        "live_vertices",
        TestSupport,
    ),
    allow(
        "crates/sampler/src/dashboard.rs",
        "check_invariants",
        TestSupport,
    ),
    // The level-recursion work counts `cold_work_bounds.rs` bounds.
    allow(
        "crates/serve/src/classifier.rs",
        "last_level_stats",
        TestSupport,
    ),
    // The full-graph forward every serving answer is compared with.
    allow("crates/serve/src/classifier.rs", "full_graph_probs", Oracle),
    // Drives Block-mode `Full` in `tests/engine.rs`; the poll loop uses
    // the crate-private `try_submit_woken`.
    allow("crates/serve/src/engine.rs", "try_submit", TestSupport),
    // The allocation counter of the `alloc_regression` and `eval_alloc`
    // tests.
    allow(
        "crates/tensor/src/alloc.rs",
        "matrix_allocations",
        TestSupport,
    ),
    // The triple-loop GEMM every kernel tier is checked against.
    allow("crates/tensor/src/gemm.rs", "matmul_reference", Oracle),
    allow("crates/tensor/src/matrix.rs", "eye", TestSupport),
    allow("crates/tensor/src/matrix.rs", "max_abs_diff", TestSupport),
    // The bf16 error bands of the precision-equivalence tests.
    allow(
        "crates/tensor/src/precision.rs",
        "rel_tolerance",
        TestSupport,
    ),
    // Strided GEMM outputs in `proptest_packed_gemm.rs`.
    allow("crates/tensor/src/view.rs", "view_cols_mut", TestSupport),
];

/// The e2e harness: read as a caller, its own `pub fn`s not checked.
const HARNESS: &str = "crates/bench/src/bin/e2e/";

/// How the scan treats a file, by its workspace-relative path.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Program text whose `pub fn`s are checked.
    Checked,
    /// Program text that only counts as a caller.
    Caller,
    /// Not read.
    Ignored,
}

fn role(path: &str) -> Role {
    if path.split('/').any(|part| part == "tests") || path.starts_with("crates/shims/") {
        Role::Ignored
    } else if path.starts_with(HARNESS) {
        Role::Caller
    } else {
        Role::Checked
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    /// A string, byte-string or char literal, contents dropped.
    Lit,
    Punct(u8),
}

/// Lex `src` into identifiers, literals and single-byte punctuation,
/// each with its 1-based line. Comments, lifetimes and numbers vanish.
fn lex(src: &str) -> Vec<(Tok<'_>, usize)> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut line = 1;
    let mut i = 0;
    // Advance over `b[from..to]`, counting its newlines.
    let skip = |from: usize, to: usize, line: &mut usize| {
        *line += b[from..to.min(b.len())]
            .iter()
            .filter(|&&c| c == b'\n')
            .count();
        to
    };
    // The end of a quoted literal whose body starts at `i`, honouring
    // backslash escapes.
    let quoted = |mut i: usize, quote: u8| {
        while i < b.len() && b[i] != quote {
            i += if b[i] == b'\\' { 2 } else { 1 };
        }
        i + 1
    };
    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied();
        if c == b'\n' {
            line += 1;
            i += 1;
        } else if c.is_ascii_whitespace() {
            i += 1;
        } else if c == b'/' && next == Some(b'/') {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
        } else if c == b'/' && next == Some(b'*') {
            let (start, mut depth) = (i, 0usize);
            while i < b.len() {
                if b[i..].starts_with(b"/*") {
                    depth += 1;
                    i += 2;
                } else if b[i..].starts_with(b"*/") {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            skip(start, i, &mut line);
        } else if c == b'"' {
            let end = quoted(i + 1, b'"');
            out.push((Tok::Lit, line));
            i = skip(i, end, &mut line);
        } else if c == b'\'' {
            if next == Some(b'\\') {
                out.push((Tok::Lit, line));
                i = quoted(i + 1, b'\'');
            } else if let Some(ch) = src[i + 1..].chars().next() {
                let after = i + 1 + ch.len_utf8();
                if b.get(after) == Some(&b'\'') {
                    out.push((Tok::Lit, line));
                    i = after + 1;
                } else {
                    // A lifetime or a loop label.
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                }
            } else {
                i += 1;
            }
        } else if c.is_ascii_digit() {
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
        } else if c.is_ascii_alphabetic() || c == b'_' || !c.is_ascii() {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || !b[i].is_ascii())
            {
                i += 1;
            }
            let word = &src[start..i];
            let hashes = b[i..].iter().take_while(|&&c| c == b'#').count();
            match (word, b.get(i + hashes)) {
                ("r" | "br", Some(b'"')) => {
                    // A raw string: ends at `"` followed by as many `#`s.
                    let close: Vec<u8> = std::iter::once(b'"')
                        .chain(std::iter::repeat_n(b'#', hashes))
                        .collect();
                    let body = i + hashes + 1;
                    let end = b[body..]
                        .windows(close.len())
                        .position(|w| w == close)
                        .map_or(b.len(), |p| body + p + close.len());
                    out.push((Tok::Lit, line));
                    i = skip(i, end, &mut line);
                }
                ("b", Some(b'"')) if hashes == 0 => {
                    let end = quoted(i + 1, b'"');
                    out.push((Tok::Lit, line));
                    i = skip(i, end, &mut line);
                }
                ("b", Some(b'\'')) if hashes == 0 => {
                    out.push((Tok::Lit, line));
                    i = quoted(i + 1, b'\'');
                }
                ("r", Some(_)) if hashes == 1 => i += 1, // `r#ident`
                _ => out.push((Tok::Ident(word), line)),
            }
        } else {
            out.push((Tok::Punct(c), line));
            i += 1;
        }
    }
    out
}

/// The index just past the item starting at `toks[i]`: through its first
/// `;` or its first `{ … }` block, whichever closes first at depth 0.
fn item_end(toks: &[(Tok<'_>, usize)], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < toks.len() {
        match toks[i].0 {
            Tok::Punct(b'(' | b'[') => depth += 1,
            Tok::Punct(b')' | b']') => depth = depth.saturating_sub(1),
            Tok::Punct(b';') if depth == 0 => return i + 1,
            Tok::Punct(b'{') => {
                let mut braces = 0usize;
                while i < toks.len() {
                    match toks[i].0 {
                        Tok::Punct(b'{') => braces += 1,
                        Tok::Punct(b'}') => {
                            braces -= 1;
                            if braces == 0 {
                                return i + 1;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                return i;
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// The attribute `#[cfg(test)]`, as tokens.
const CFG_TEST: [Tok<'static>; 7] = [
    Tok::Punct(b'#'),
    Tok::Punct(b'['),
    Tok::Ident("cfg"),
    Tok::Punct(b'('),
    Tok::Ident("test"),
    Tok::Punct(b')'),
    Tok::Punct(b']'),
];

/// Whether `toks[i..]` starts with [`CFG_TEST`].
fn is_cfg_test(toks: &[(Tok<'_>, usize)], i: usize) -> bool {
    toks.len() >= i + CFG_TEST.len()
        && toks[i..i + CFG_TEST.len()]
            .iter()
            .zip(CFG_TEST)
            .all(|(t, want)| t.0 == want)
}

/// `src`'s program tokens: [`lex`] less `use` declarations and
/// `#[cfg(test)]` items.
fn program(src: &str) -> Vec<(Tok<'_>, usize)> {
    let toks = lex(src);
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if is_cfg_test(&toks, i) {
            i = item_end(&toks, i + CFG_TEST.len());
        } else if toks[i].0 == Tok::Ident("use") {
            i = item_end(&toks, i);
        } else {
            out.push(toks[i]);
            i += 1;
        }
    }
    out
}

/// A `pub fn` definition the gate checks.
struct Def {
    file: String,
    line: usize,
    name: String,
}

/// The scan's result over a set of sources.
#[derive(Default)]
struct Surface {
    /// Every checked `pub fn`.
    defs: Vec<Def>,
    /// Every identifier that occurs in program text other than as the
    /// name of a `fn` definition.
    calls: HashSet<String>,
}

impl Surface {
    fn scan<'a>(sources: impl IntoIterator<Item = (&'a str, &'a str)>) -> Surface {
        let mut surface = Surface::default();
        for (path, src) in sources {
            let role = role(path);
            if role == Role::Ignored {
                continue;
            }
            let toks = program(src);
            for (i, &(tok, line)) in toks.iter().enumerate() {
                let Tok::Ident(name) = tok else { continue };
                if i == 0 || toks[i - 1].0 != Tok::Ident("fn") {
                    surface.calls.insert(name.to_string());
                    continue;
                }
                // Walk back over the qualifiers between `pub` and `fn`.
                let mut j = i - 1;
                while j > 0
                    && matches!(
                        toks[j - 1].0,
                        Tok::Ident("const" | "unsafe" | "async" | "extern") | Tok::Lit
                    )
                {
                    j -= 1;
                }
                if role == Role::Checked && j > 0 && toks[j - 1].0 == Tok::Ident("pub") {
                    surface.defs.push(Def {
                        file: path.to_string(),
                        line,
                        name: name.to_string(),
                    });
                }
            }
        }
        surface
    }

    fn called(&self, name: &str) -> bool {
        self.calls.contains(name)
    }

    /// Every failure of the gate under `allow`, one line each.
    fn failures(&self, allow: &[Allow]) -> Vec<String> {
        let mut out = Vec::new();
        for def in &self.defs {
            let allowed = allow
                .iter()
                .any(|a| a.file == def.file && a.name == def.name);
            if !allowed && !self.called(&def.name) {
                out.push(format!(
                    "{}:{}: `pub fn {}` has no program caller",
                    def.file, def.line, def.name
                ));
            }
        }
        for a in allow {
            let exists = self
                .defs
                .iter()
                .any(|d| d.file == a.file && d.name == a.name);
            if !exists {
                out.push(format!(
                    "allowlist: `{}` ({:?}) is no `pub fn` of {}",
                    a.name, a.reason, a.file
                ));
            } else if self.called(a.name) {
                out.push(format!(
                    "allowlist: `{}` ({:?}) in {} now has a program caller",
                    a.name, a.reason, a.file
                ));
            }
        }
        out
    }
}

/// Every `.rs` file under `dir`, as (workspace-relative path, text),
/// skipping `target` and hidden directories.
fn read_tree(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                read_tree(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).expect("under the root");
            let rel = rel.to_str().expect("utf-8 path").replace('\\', "/");
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            out.push((rel, text));
        }
    }
}

#[test]
fn every_pub_fn_has_a_program_caller_or_an_allowlist_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    read_tree(root, root, &mut files);
    let surface = Surface::scan(files.iter().map(|(p, s)| (p.as_str(), s.as_str())));
    assert!(
        surface.defs.len() > 100,
        "the scan found only {} `pub fn`s",
        surface.defs.len()
    );
    let failures = surface.failures(ALLOWLIST);
    assert!(
        failures.is_empty(),
        "{} `pub fn` surface failures (call the function from program code, \
         delete it, or allowlist it with a reason in tests/surface.rs):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

mod scanner {
    use super::*;

    const LIB: &str = "crates/graph/src/lib.rs";

    fn failures(sources: &[(&str, &str)], allow: &[Allow]) -> Vec<String> {
        Surface::scan(sources.iter().copied()).failures(allow)
    }

    fn flagged(sources: &[(&str, &str)]) -> Vec<String> {
        let surface = Surface::scan(sources.iter().copied());
        let mut names: Vec<String> = surface
            .defs
            .iter()
            .filter(|d| !surface.called(&d.name))
            .map(|d| d.name.clone())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_name_in_a_comment_or_a_literal_is_no_caller() {
        let lib = "/// See [`dead`] and [`crate::dead`].\n\
                   pub fn dead() {}\n\
                   // dead();\n\
                   /* dead(); /* nested */ dead(); */\n\
                   pub fn run() { let _ = (\"dead()\", r#\"dead\"#, b\"dead\", 'd'); run() }\n";
        assert_eq!(flagged(&[(LIB, lib)]), ["dead"]);
    }

    #[test]
    fn a_name_in_a_use_line_is_no_caller() {
        let lib = "pub fn dead() {}\npub fn live() {}\n";
        let bin = "use gsgcn_graph::dead;\n\
                   pub use gsgcn_graph::{\n    dead as other,\n    live,\n};\n\
                   fn main() { live() }\n";
        assert_eq!(flagged(&[(LIB, lib), ("src/bin/gsgcn.rs", bin)]), ["dead"]);
    }

    #[test]
    fn a_caller_in_a_cfg_test_item_is_no_caller() {
        let lib = "pub fn dead() {}\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::dead() }\n}\n\
                   #[cfg(test)]\nfn helper() { dead() }\n\
                   #[cfg(test)]\nimpl S { pub fn only_in_tests(&self) { dead() } }\n";
        // A `pub fn` inside a `#[cfg(test)]` item is not checked either.
        assert_eq!(flagged(&[(LIB, lib)]), ["dead"]);
    }

    #[test]
    fn a_caller_in_a_tests_directory_is_no_caller() {
        let lib = "pub fn dead() {}\n";
        for test in [
            "tests/end_to_end.rs",
            "crates/graph/tests/proptests.rs",
            "crates/bench/src/bin/e2e/tests/cli.rs",
        ] {
            let call = "#[test]\nfn t() { gsgcn_graph::dead() }\npub fn fixture() {}\n";
            assert_eq!(flagged(&[(LIB, lib), (test, call)]), ["dead"], "{test}");
        }
    }

    #[test]
    fn the_harness_and_the_benches_are_callers() {
        let lib = "pub fn by_harness() {}\npub fn by_bench() {}\npub fn by_pairs() {}\n";
        let harness = "pub fn unchecked() {}\nfn main() { gsgcn_graph::by_harness() }\n";
        let bench = "fn bench() { gsgcn_graph::by_bench(); }\n";
        let pairs = "fn main() { by_pairs() }\n";
        let sources = [
            (LIB, lib),
            ("crates/bench/src/bin/e2e/src/main.rs", harness),
            ("crates/bench/benches/gemm.rs", bench),
            ("crates/bench/src/bin/pairs.rs", pairs),
        ];
        assert!(flagged(&sources).is_empty(), "{:?}", flagged(&sources));
    }

    #[test]
    fn the_shims_are_neither_checked_nor_callers() {
        let lib = "pub fn dead() {}\n";
        let shim = "pub fn unused_shim_api() {}\nfn f() { dead() }\n";
        let sources = [(LIB, lib), ("crates/shims/rayon/src/lib.rs", shim)];
        assert_eq!(flagged(&sources), ["dead"]);
    }

    #[test]
    fn qualified_pub_fns_are_checked_and_restricted_ones_are_not() {
        let lib = "pub const fn a() {}\npub unsafe fn b() {}\n\
                   pub unsafe extern \"C\" fn c() {}\npub(crate) fn d() {}\n\
                   impl T { pub fn e(&self) {} }\ntrait U { fn f(&self); }\n";
        assert_eq!(flagged(&[(LIB, lib)]), ["a", "b", "c", "e"]);
    }

    #[test]
    fn another_fn_definition_of_the_same_name_is_no_caller() {
        let lib = "pub fn len() {}\nimpl Tr for S { fn len(&self) {} }\n";
        assert_eq!(flagged(&[(LIB, lib)]), ["len"]);
    }

    #[test]
    fn an_allowlist_entry_clears_its_function_and_fails_when_stale() {
        let lib = "pub fn fixture() {}\npub fn oracle() {}\n";
        let allow = [
            Allow {
                file: LIB,
                name: "fixture",
                reason: Reason::TestSupport,
            },
            Allow {
                file: LIB,
                name: "oracle",
                reason: Reason::Oracle,
            },
        ];
        assert!(failures(&[(LIB, lib)], &allow).is_empty());

        // The function gained a program caller: its entry is stale.
        let bin = ("src/bin/gsgcn.rs", "fn main() { gsgcn_graph::fixture() }\n");
        let stale = failures(&[(LIB, lib), bin], &allow);
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert!(stale[0].contains("`fixture`") && stale[0].contains("program caller"));

        // The function is gone: its entry is stale too.
        let gone = failures(&[(LIB, "pub fn oracle() {}\n")], &allow);
        assert_eq!(gone.len(), 1, "{gone:?}");
        assert!(gone[0].contains("`fixture`") && gone[0].contains("no `pub fn`"));

        // Without the entries, both functions fail.
        assert_eq!(failures(&[(LIB, lib)], &[]).len(), 2);
    }

    #[test]
    fn lifetimes_and_char_literals_do_not_swallow_code() {
        let lib = "pub fn dead<'a>(x: &'a str) -> char { 'outer: loop { break 'outer; } '\\'' }\n\
                   pub fn quote() -> char { '\"' }\n\
                   fn main() { quote(); }\n";
        assert_eq!(flagged(&[(LIB, lib)]), ["dead"]);
    }
}
