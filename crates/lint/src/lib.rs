//! # wheels-lint
//!
//! Determinism & hygiene static analysis for the wheels workspace.
//!
//! The simulator's headline guarantee — bit-identical datasets from a
//! published seed, at any thread count — is a property of the *whole*
//! tree, and nothing in the type system stops a future change from
//! iterating a `HashMap` into an output table or reading the wall clock
//! inside the simulator. This crate enforces those invariants
//! mechanically, in two tiers over one shared token stream (the build
//! environment is registry-free, so no `syn` — a self-contained lexer
//! and a lightweight recursive-descent parser live in this crate). Each
//! rule names one bug class that no test catches.
//!
//! **Tier 1** ([`rules`]) is six single-file token rules:
//!
//! 1. **nondeterminism** — no `Instant::now` / `SystemTime::now` /
//!    `thread_rng` / `from_entropy` / `rand::random` / `env::var` in
//!    simulator and analysis crates (binaries exempt);
//! 2. **hash-iteration** — no `HashMap`/`HashSet` in dataset-producing
//!    crates, whose iteration order can leak into emitted tables;
//! 3. **unwrap-in-lib** — no bare `.unwrap()` / `panic!` in library code
//!    without a justification comment;
//! 4. **lossy-cast** — no unannotated `as`-casts to integer types in
//!    record/analysis paths;
//! 5. **crate-hygiene** — every crate root carries
//!    `#![forbid(unsafe_code)]` and a `//!` doc header;
//! 6. **bounded-retry** — on the always-on service and soak-harness
//!    paths, `loop`/`while` bodies that sleep (retry/poll loops) must
//!    visibly bound themselves with a stop flag, deadline/timeout, or
//!    attempt budget — an unbounded sleep loop spins forever against a
//!    peer that never recovers.
//!
//! **Tier 2** ([`tier2`]) parses every file into an item AST, builds a
//! workspace symbol table and approximate call graph, and runs four
//! cross-file dataflow passes:
//!
//! 7. **determinism-taint** — nondeterministic values (clock reads,
//!    entropy, host topology, hash-iteration order) must not *flow*,
//!    through locals, params, and returns, into record constructors,
//!    checkpoint/WCD1 encoders, or report printers — the full call
//!    chain appears in the diagnostic;
//! 8. **rng-stream-labels** — every `split(label)` site, whether the
//!    label is a literal, a `format!` skeleton, or a value resolved
//!    through locals, params and callee returns, follows the `area/rest`
//!    scheme, is unique workspace-wide, and keeps the `campaign/faults/`
//!    namespace to the disruption subsystem and the subsystem to it;
//! 9. **atomic-persistence** — on persistence paths (checkpoint journal,
//!    binary output writers), no in-place `fs::write`, no `File::create`
//!    without a later `rename`, and an fsync (possibly transitive through
//!    a callee) before that rename, so a crash never leaves a torn or
//!    unsynced file a resumed run would trust;
//! 10. **unordered-float-reduction** — non-commutative `f64` reductions
//!     must not consume hash-map or channel iteration order in the
//!     analysis kernels or the campaign merge.
//!
//! A finding is silenced in place with `// lint: allow(rule, reason)` on
//! the offending line or the line above; the reason is mandatory. Rules
//! emit *raw* findings and this driver applies the allow filter
//! uniformly, then audits the directives against the raw findings: every
//! directive that no longer suppresses anything is itself a
//! **stale-allow** finding (rule 11).
//!
//! Run it as `cargo run -p wheels-lint -- --workspace [--json] [--sarif
//! FILE] [--root DIR]`; `tests/workspace_clean.rs` runs the same
//! analysis over the shipped tree on every `cargo test`.

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod sarif;
pub mod tier2;
pub mod workspace;

use std::io;
use std::path::Path;

pub use config::Config;
pub use report::{Finding, Report, SCHEMA_VERSION};
pub use sarif::render_sarif;
pub use workspace::SourceFile;

/// Lint a set of already-loaded source files: both tiers, the allow
/// filter, and the stale-allow audit.
pub fn lint_sources(files: &[SourceFile], cfg: &Config) -> Report {
    // Lex every file once; tier 1, tier 2, the allow filter, and the
    // stale-allow audit all share the streams.
    let lexed: Vec<lexer::LexedFile> = files.iter().map(|f| lexer::lex(&f.src)).collect();
    let masks: Vec<Vec<bool>> = lexed.iter().map(|l| lexer::test_mask(&l.toks)).collect();

    let mut raw = Vec::new();
    for (i, file) in files.iter().enumerate() {
        let (lx, mask) = (&lexed[i], &masks[i]);
        rules::nondeterminism(file, lx, mask, cfg, &mut raw);
        rules::hash_iteration(file, lx, mask, cfg, &mut raw);
        rules::unwrap_in_lib(file, lx, mask, &mut raw);
        rules::lossy_cast(file, lx, mask, cfg, &mut raw);
        rules::crate_hygiene(file, lx, mask, cfg, &mut raw);
        rules::bounded_retry(file, lx, mask, cfg, &mut raw);
    }
    tier2::Tier2::build(files, &lexed, &masks).run(cfg, &mut raw);

    // Uniform suppression: drop raw findings covered by an allow
    // directive with a reason, in the finding's own file.
    let index_of = |rel: &str| files.iter().position(|f| f.rel_path == rel);
    let mut findings: Vec<Finding> = raw
        .iter()
        .filter(|f| index_of(&f.file).is_none_or(|i| !rules::allowed(&lexed[i], f.rule, f.line)))
        .cloned()
        .collect();
    stale_allows(files, &lexed, &raw, &mut findings);

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    Report {
        schema_version: SCHEMA_VERSION,
        findings,
        files_checked: files.len(),
    }
}

/// The stale-allow audit: every `// lint: allow(rule, reason)`
/// directive must suppress at least one raw finding (same rule, on the
/// directive's line or the line below — the two positions [`rules::allowed`]
/// honours). Directives that suppress nothing, name an unknown rule, or
/// carry an empty reason are reported as `stale-allow`.
fn stale_allows(
    files: &[SourceFile],
    lexed: &[lexer::LexedFile],
    raw: &[Finding],
    out: &mut Vec<Finding>,
) {
    const RULE: &str = "stale-allow";
    for (i, file) in files.iter().enumerate() {
        for (&line, dirs) in &lexed[i].allows {
            for d in dirs {
                let why = if !rules::known_rule(&d.rule) {
                    Some(format!(
                        "allow directive names unknown rule \"{}\" — it can never suppress anything",
                        d.rule
                    ))
                } else if d.reason.trim().is_empty() {
                    Some(format!(
                        "allow directive for `{}` has no reason, so it suppresses nothing — add a justification or delete it",
                        d.rule
                    ))
                } else {
                    let used = raw.iter().any(|f| {
                        f.file == file.rel_path
                            && f.rule == d.rule
                            && (f.line == line || f.line == line + 1)
                    });
                    (!used).then(|| {
                        format!(
                            "stale allow: no `{}` finding on this line or the next — the directive suppresses nothing; delete it",
                            d.rule
                        )
                    })
                };
                if let Some(message) = why {
                    out.push(Finding {
                        rule: RULE,
                        id: rules::rule_id(RULE),
                        file: file.rel_path.clone(),
                        line,
                        col: 1,
                        message,
                        snippet: lexed[i]
                            .lines
                            .get(line as usize - 1)
                            .cloned()
                            .unwrap_or_default(),
                    });
                }
            }
        }
    }
}

/// Lint the workspace rooted at `root`.
pub fn lint_workspace(root: &Path, cfg: &Config) -> io::Result<Report> {
    let files = workspace::collect_workspace(root, cfg)?;
    Ok(lint_sources(&files, cfg))
}
