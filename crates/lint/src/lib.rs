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
//! and a lightweight recursive-descent parser live in this crate).
//!
//! **Tier 1** is the token-pattern rule engine: ten single-file rules.
//!
//! 1. **nondeterminism** — no `Instant::now` / `SystemTime::now` /
//!    `thread_rng` / `from_entropy` / `rand::random` / `env::var` in
//!    simulator and analysis crates (binaries exempt);
//! 2. **hash-iteration** — no `HashMap`/`HashSet` in dataset-producing
//!    crates, whose iteration order can leak into emitted tables;
//! 3. **rng-stream-labels** — every `SimRng::split("…")` label literal
//!    is unique workspace-wide and follows the `area/{…}` scheme;
//! 4. **unwrap-in-lib** — no bare `.unwrap()` / `panic!` in library code
//!    without a justification comment;
//! 5. **lossy-cast** — no unannotated `as`-casts to integer types in
//!    record/analysis paths;
//! 6. **crate-hygiene** — every crate root carries
//!    `#![forbid(unsafe_code)]` and a `//!` doc header;
//! 7. **disrupt-stream-namespace** — RNG stream labels in the disruption
//!    subsystem stay inside the dedicated `campaign/faults/` namespace,
//!    so fault injection can never perturb the simulation streams;
//! 8. **atomic-persistence** — on persistence paths (checkpoint journal,
//!    binary output writers), no in-place `fs::write` or non-renamed
//!    `File::create`: files must land via temp-file + atomic rename so a
//!    crash mid-write never leaves a torn file a resumed run would trust;
//! 9. **columnar-kernel** — in the batched analysis paths, no per-row
//!    `.iter().map(|s| s.field)` projections: kernels scan the
//!    contiguous column slices of the columnar dataset, not an array of
//!    structs one row at a time;
//! 10. **bounded-retry** — on the always-on service and soak-harness
//!     paths, `loop`/`while` bodies that sleep (retry/poll loops) must
//!     visibly bound themselves with a stop flag, deadline/timeout, or
//!     attempt budget — an unbounded sleep loop spins forever against a
//!     peer that never recovers.
//!
//! **Tier 2** ([`tier2`]) parses every file into an item AST, builds a
//! workspace symbol table and approximate call graph, and runs four
//! cross-file dataflow passes:
//!
//! 11. **determinism-taint** — nondeterministic values (clock reads,
//!     entropy, host topology, hash-iteration order) must not *flow*,
//!     through locals, params, and returns, into record constructors,
//!     checkpoint/WCD1 encoders, or report printers — the full call
//!     chain appears in the diagnostic;
//! 12. **rng-stream-flow** — `split(label)` sites whose label arrives
//!     through value flow (`format!`, locals, params, callee returns)
//!     obey the `area/rest` scheme, workspace uniqueness, and the
//!     disrupt-namespace confinement, just like literal labels;
//! 13. **persistence-ordering** — when a created file is later renamed
//!     into place, an fsync (possibly transitive through a callee) must
//!     sit between the create and the rename;
//! 14. **unordered-float-reduction** — non-commutative `f64` reductions
//!     must not consume hash-map or channel iteration order in the
//!     analysis kernels or the campaign merge.
//!
//! A finding is silenced in place with `// lint: allow(rule, reason)` on
//! the offending line or the line above; the reason is mandatory. Rules
//! emit *raw* findings and this driver applies the allow filter
//! uniformly, which is what powers `--strict-allows`: the audit diffs
//! the directives against the raw findings and reports every directive
//! that no longer suppresses anything as **stale-allow** (rule 15).
//!
//! Run it four ways: `cargo run -p wheels-lint -- --workspace [--json]
//! [--sarif FILE] [--tier1-only] [--strict-allows]`, the fixture tests
//! under `tests/`, and the workspace-clean integration test in the root
//! package (tier 1).

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

/// Knobs for a lint run beyond the per-crate [`Config`].
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Run the tier-2 dataflow passes (default: on).
    pub tier2: bool,
    /// Audit allow directives: any directive that suppresses no raw
    /// finding becomes a `stale-allow` finding (default: off).
    pub strict_allows: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            tier2: true,
            strict_allows: false,
        }
    }
}

/// Lint a set of already-loaded source files with explicit [`Options`].
pub fn lint_sources_opts(files: &[SourceFile], cfg: &Config, opts: Options) -> Report {
    // Lex every file once; tier 1, tier 2, the allow filter, and the
    // strict-allows audit all share the streams.
    let lexed: Vec<lexer::LexedFile> = files.iter().map(|f| lexer::lex(&f.src)).collect();
    let masks: Vec<Vec<bool>> = lexed.iter().map(|l| lexer::test_mask(&l.toks)).collect();

    let mut raw = Vec::new();
    let mut labels = rules::LabelRegistry::default();
    for (i, file) in files.iter().enumerate() {
        let (lx, mask) = (&lexed[i], &masks[i]);
        rules::nondeterminism(file, lx, mask, cfg, &mut raw);
        rules::hash_iteration(file, lx, mask, cfg, &mut raw);
        rules::collect_labels(file, lx, mask, cfg, &mut labels);
        rules::unwrap_in_lib(file, lx, mask, cfg, &mut raw);
        rules::lossy_cast(file, lx, mask, cfg, &mut raw);
        rules::crate_hygiene(file, lx, mask, cfg, &mut raw);
        rules::disrupt_stream_namespace(file, lx, mask, cfg, &mut raw);
        rules::atomic_persistence(file, lx, mask, cfg, &mut raw);
        rules::columnar_kernel(file, lx, mask, cfg, &mut raw);
        rules::bounded_retry(file, lx, mask, cfg, &mut raw);
    }
    rules::label_findings(&labels, &mut raw);

    if opts.tier2 {
        let t2 = tier2::Tier2::build(files, &lexed, &masks);
        t2.run(cfg, &labels, &mut raw);
    }

    // Uniform suppression: drop raw findings covered by an allow
    // directive with a reason, in the finding's own file.
    let index_of = |rel: &str| files.iter().position(|f| f.rel_path == rel);
    let mut findings: Vec<Finding> = raw
        .iter()
        .filter(|f| index_of(&f.file).is_none_or(|i| !rules::allowed(&lexed[i], f.rule, f.line)))
        .cloned()
        .collect();

    if opts.strict_allows {
        stale_allows(files, &lexed, &raw, &mut findings);
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    Report {
        schema_version: SCHEMA_VERSION,
        findings,
        files_checked: files.len(),
    }
}

/// The strict-allows audit: every `// lint: allow(rule, reason)`
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

/// Lint a set of already-loaded source files with default options
/// (tier 2 on, strict-allows off).
pub fn lint_sources(files: &[SourceFile], cfg: &Config) -> Report {
    lint_sources_opts(files, cfg, Options::default())
}

/// Lint the workspace rooted at `root` with explicit [`Options`].
pub fn lint_workspace_opts(root: &Path, cfg: &Config, opts: Options) -> io::Result<Report> {
    let files = workspace::collect_workspace(root, cfg)?;
    Ok(lint_sources_opts(&files, cfg, opts))
}

/// Lint the workspace rooted at `root` with default options.
pub fn lint_workspace(root: &Path, cfg: &Config) -> io::Result<Report> {
    lint_workspace_opts(root, cfg, Options::default())
}
