//! The rule catalogue.
//!
//! Every rule is a token-pattern pass over one lexed file, except the RNG
//! stream-label rule, which also aggregates a workspace-wide registry so
//! it can enforce label uniqueness across crates. Each rule can be
//! silenced at a site with `// lint: allow(rule-name, reason)` on the
//! offending line or the line above — the reason is mandatory.

use std::collections::BTreeMap;

use crate::config::Config;
use crate::lexer::{LexedFile, Tok, TokKind};
use crate::report::Finding;
use crate::workspace::SourceFile;

/// Catalogue metadata for one rule: the kebab-case name used in
/// diagnostics and `// lint: allow(…)` directives, the snake_case id
/// shared by `--json` output and SARIF `ruleId` (both pinned by golden
/// tests), and a one-line description.
#[derive(Debug, Clone, Copy)]
pub struct RuleMeta {
    /// Kebab-case rule name (allow directives, text output).
    pub name: &'static str,
    /// Stable snake_case id (JSON `id` field, SARIF `ruleId`).
    pub id: &'static str,
    /// One-line description (SARIF rule metadata).
    pub about: &'static str,
}

/// The rule catalogue, in order: tier-1 token rules (0–9), tier-2
/// dataflow passes (10–13), and the strict-allows audit (14).
pub const RULES: [RuleMeta; 15] = [
    RuleMeta {
        name: "nondeterminism",
        id: "nondeterminism",
        about: "wall-clock, OS-entropy, and environment reads are forbidden in simulator crates",
    },
    RuleMeta {
        name: "hash-iteration",
        id: "hash_iteration",
        about: "HashMap/HashSet iteration order can leak into datasets produced by these crates",
    },
    RuleMeta {
        name: "rng-stream-labels",
        id: "rng_stream_labels",
        about: "split() label literals must follow area/rest and be unique workspace-wide",
    },
    RuleMeta {
        name: "unwrap-in-lib",
        id: "unwrap_in_lib",
        about: "bare unwrap()/panic! in library code must become expect()/errors or be justified",
    },
    RuleMeta {
        name: "lossy-cast",
        id: "lossy_cast",
        about: "as-casts to integer types on record/analysis paths truncate silently",
    },
    RuleMeta {
        name: "crate-hygiene",
        id: "crate_hygiene",
        about: "crate roots carry #![forbid(unsafe_code)] and a //! doc header",
    },
    RuleMeta {
        name: "disrupt-stream-namespace",
        id: "disrupt_stream_namespace",
        about: "disruption-subsystem RNG labels stay inside the campaign/faults/ namespace",
    },
    RuleMeta {
        name: "atomic-persistence",
        id: "atomic_persistence",
        about: "persistence paths use temp-file + atomic rename, never in-place writes",
    },
    RuleMeta {
        name: "columnar-kernel",
        id: "columnar_kernel",
        about: "batched analysis paths gather from column slices, not per-row struct walks",
    },
    RuleMeta {
        name: "bounded-retry",
        id: "bounded_retry",
        about:
            "retry/poll loops on service and soak paths carry a stop flag, deadline, or attempt cap",
    },
    RuleMeta {
        name: "determinism-taint",
        id: "determinism_taint",
        about: "tier 2: nondeterministic values must not flow into record/checkpoint/report sinks",
    },
    RuleMeta {
        name: "rng-stream-flow",
        id: "rng_stream_flow",
        about: "tier 2: RNG labels resolved through value flow obey scheme, uniqueness, namespace",
    },
    RuleMeta {
        name: "persistence-ordering",
        id: "persistence_ordering",
        about: "tier 2: created files are fsynced before the rename that publishes them",
    },
    RuleMeta {
        name: "unordered-float-reduction",
        id: "unordered_float_reduction",
        about: "tier 2: f64 reductions must not consume unordered (hash/channel) iteration",
    },
    RuleMeta {
        name: "stale-allow",
        id: "stale_allow",
        about: "strict-allows audit: allow directives that no longer suppress any finding",
    },
];

/// The stable snake_case id for a rule name. Panics on an unknown name —
/// rules and passes only ever emit names from [`RULES`].
pub fn rule_id(name: &str) -> &'static str {
    RULES
        .iter()
        .find(|r| r.name == name)
        .map(|r| r.id)
        .expect("every emitted rule name is in the catalogue")
}

/// Is `name` a known rule name?
pub fn known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// Integer cast targets the lossy-cast rule watches.
const INT_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Methods that make the rounding of a float→int cast explicit.
const ROUNDING_METHODS: [&str; 4] = ["round", "floor", "ceil", "trunc"];

/// One `split("…")` call site collected for the label registry.
#[derive(Debug, Clone)]
pub struct LabelSite {
    /// The label literal (format skeleton for `format!` labels).
    pub label: String,
    /// Workspace-relative file.
    pub file: String,
    /// Position.
    pub line: u32,
    /// Position.
    pub col: u32,
    /// Offending source line.
    pub snippet: String,
}

/// Workspace-wide registry of RNG stream labels, keyed by literal.
#[derive(Debug, Default)]
pub struct LabelRegistry {
    sites: BTreeMap<String, Vec<LabelSite>>,
}

impl LabelRegistry {
    /// The collected sites, keyed by label literal (tier 2 consults this
    /// for cross-tier uniqueness of resolved labels).
    pub fn labels(&self) -> &BTreeMap<String, Vec<LabelSite>> {
        &self.sites
    }
}

/// True if a finding of `rule` at `line` is suppressed by an allow
/// directive (on the same line or the line above) with a non-empty
/// reason. Rules emit *raw* findings; the driver applies this filter
/// uniformly afterwards (which is what makes the `--strict-allows`
/// audit possible — it diffs the raw findings against the directives).
pub(crate) fn allowed(lexed: &LexedFile, rule: &str, line: u32) -> bool {
    [line.saturating_sub(1), line].iter().any(|l| {
        lexed.allows.get(l).is_some_and(|v| {
            v.iter()
                .any(|a| a.rule == rule && !a.reason.trim().is_empty())
        })
    })
}

fn snippet(lexed: &LexedFile, line: u32) -> String {
    lexed
        .lines
        .get(line as usize - 1)
        .cloned()
        .unwrap_or_default()
}

fn finding(
    rule: &'static str,
    file: &SourceFile,
    lexed: &LexedFile,
    tok: &Tok,
    message: String,
) -> Finding {
    Finding {
        rule,
        id: rule_id(rule),
        file: file.rel_path.clone(),
        line: tok.line,
        col: tok.col,
        message,
        snippet: snippet(lexed, tok.line),
    }
}

/// Is `toks[k]` followed by `::seg`?
fn path_seg(toks: &[Tok], k: usize, seg: &str) -> bool {
    toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(k + 3).is_some_and(|t| t.ident() == Some(seg))
}

/// Is `toks[k]` preceded by `seg::`?
fn path_pred(toks: &[Tok], k: usize, seg: &str) -> bool {
    k >= 3
        && toks[k - 1].is_punct(':')
        && toks[k - 2].is_punct(':')
        && toks[k - 3].ident() == Some(seg)
}

/// Rule 1 — nondeterminism: wall-clock time, OS entropy, and environment
/// reads are forbidden in simulator/analysis crates (binaries exempt).
pub fn nondeterminism(
    file: &SourceFile,
    lexed: &LexedFile,
    mask: &[bool],
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    if file.is_bin || !cfg.nondet_crates.contains(&file.crate_name) {
        return;
    }
    const RULE: &str = RULES[0].name;
    for (k, t) in lexed.toks.iter().enumerate() {
        if mask[k] {
            continue;
        }
        let Some(id) = t.ident() else { continue };
        let msg = match id {
            "Instant" | "SystemTime" if path_seg(&lexed.toks, k, "now") => format!(
                "`{id}::now()` reads the wall clock — simulation time must come from `SimTime` so runs are reproducible"
            ),
            "thread_rng" => "`thread_rng()` is OS-seeded — all randomness must flow through `SimRng::seed(..)`/`split(..)`".to_string(),
            "from_entropy" => "`from_entropy()` seeds from the OS — derive generators from the campaign seed instead".to_string(),
            "random" if path_pred(&lexed.toks, k, "rand") => {
                "`rand::random()` is OS-seeded — draw from a `SimRng` stream instead".to_string()
            }
            "var" | "var_os" | "vars" if path_pred(&lexed.toks, k, "env") => format!(
                "`env::{id}` makes output depend on the process environment — thread configuration through typed config structs"
            ),
            _ => continue,
        };
        out.push(finding(RULE, file, lexed, t, msg));
    }
}

/// Rule 2 — hash-iteration: `HashMap`/`HashSet` in dataset-producing
/// crates; their iteration order is nondeterministic and can leak into
/// emitted tables.
pub fn hash_iteration(
    file: &SourceFile,
    lexed: &LexedFile,
    mask: &[bool],
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    if !cfg.dataset_crates.contains(&file.crate_name) {
        return;
    }
    const RULE: &str = RULES[1].name;
    for (k, t) in lexed.toks.iter().enumerate() {
        if mask[k] {
            continue;
        }
        if let Some(id @ ("HashMap" | "HashSet")) = t.ident() {
            let alt = if id == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            out.push(finding(
                RULE,
                file,
                lexed,
                t,
                format!(
                    "`{id}` in dataset-producing crate `{}` — iteration order is nondeterministic; use `{alt}` or sort before emitting",
                    file.crate_name
                ),
            ));
        }
    }
}

/// Rule 3 (collection half) — gather every `split("…")` label literal.
/// Labels built with `format!("…", ..)` contribute their format skeleton;
/// fully dynamic labels cannot be checked lexically and are skipped.
pub fn collect_labels(
    file: &SourceFile,
    lexed: &LexedFile,
    mask: &[bool],
    cfg: &Config,
    reg: &mut LabelRegistry,
) {
    if cfg.label_exempt_crates.contains(&file.crate_name) {
        return;
    }
    let toks = &lexed.toks;
    for k in 0..toks.len() {
        if mask[k] {
            continue;
        }
        if toks[k].ident() != Some("split")
            || k == 0
            || !toks[k - 1].is_punct('.')
            || !toks.get(k + 1).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        let mut j = k + 2;
        if toks.get(j).is_some_and(|t| t.is_punct('&')) {
            j += 1;
        }
        let lit = match toks.get(j) {
            Some(t) if t.kind == TokKind::Str => Some(t),
            Some(t)
                if t.ident() == Some("format")
                    && toks.get(j + 1).is_some_and(|t| t.is_punct('!'))
                    && toks.get(j + 2).is_some_and(|t| t.is_punct('(')) =>
            {
                toks.get(j + 3).filter(|t| t.kind == TokKind::Str)
            }
            _ => None,
        };
        let Some(lit) = lit else { continue };
        reg.sites
            .entry(lit.text.clone())
            .or_default()
            .push(LabelSite {
                label: lit.text.clone(),
                file: file.rel_path.clone(),
                line: lit.line,
                col: lit.col,
                snippet: snippet(lexed, lit.line),
            });
    }
}

/// Does a label follow the `area/{…}` scheme: a static lowercase
/// `[a-z0-9_-]+` area prefix, a `/`, and a non-empty remainder?
fn label_well_formed(label: &str) -> bool {
    match label.split_once('/') {
        None => false,
        Some((area, rest)) => {
            !area.is_empty()
                && !rest.is_empty()
                && area
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
        }
    }
}

/// Rule 3 (verdict half) — every collected label must be well-formed and
/// unique across the workspace; two sites reusing one literal silently
/// correlate their streams when handed the same parent generator.
pub fn label_findings(reg: &LabelRegistry, out: &mut Vec<Finding>) {
    const RULE: &str = RULES[2].name;
    for (label, sites) in &reg.sites {
        for (idx, site) in sites.iter().enumerate() {
            if !label_well_formed(label) {
                out.push(Finding {
                    rule: RULE,
                    id: rule_id(RULE),
                    file: site.file.clone(),
                    line: site.line,
                    col: site.col,
                    message: format!(
                        "RNG stream label \"{label}\" does not follow the `area/{{…}}` scheme (lowercase area prefix, then `/`)"
                    ),
                    snippet: site.snippet.clone(),
                });
            }
            if idx > 0 {
                let first = &sites[0];
                out.push(Finding {
                    rule: RULE,
                    id: rule_id(RULE),
                    file: site.file.clone(),
                    line: site.line,
                    col: site.col,
                    message: format!(
                        "duplicate RNG stream label \"{label}\" (first used at {}:{}:{}) — reusing a label risks correlated streams",
                        first.file, first.line, first.col
                    ),
                    snippet: site.snippet.clone(),
                });
            }
        }
    }
}

/// Rule 4 — unwrap-in-lib: bare `.unwrap()` / `panic!` in library code
/// must either become `expect("why this holds")` / a proper error, or
/// carry a justification comment.
pub fn unwrap_in_lib(
    file: &SourceFile,
    lexed: &LexedFile,
    mask: &[bool],
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    if file.is_bin || cfg.unwrap_exempt_crates.contains(&file.crate_name) {
        return;
    }
    const RULE: &str = RULES[3].name;
    let toks = &lexed.toks;
    for k in 0..toks.len() {
        if mask[k] {
            continue;
        }
        let Some(id) = toks[k].ident() else { continue };
        if id == "unwrap"
            && k > 0
            && toks[k - 1].is_punct('.')
            && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(k + 2).is_some_and(|t| t.is_punct(')'))
        {
            out.push(finding(
                RULE,
                file,
                lexed,
                &toks[k],
                "bare `.unwrap()` in library code — use `expect(\"why this holds\")`, return an error, or justify with `// lint: allow(unwrap-in-lib, reason)`".to_string(),
            ));
        }
        if id == "panic" && toks.get(k + 1).is_some_and(|t| t.is_punct('!')) {
            out.push(finding(
                RULE,
                file,
                lexed,
                &toks[k],
                "`panic!` in library code — return an error, or justify with `// lint: allow(unwrap-in-lib, reason)`".to_string(),
            ));
        }
    }
}

/// Rule 5 — lossy-cast: in record/analysis paths, `as`-casts to integer
/// types silently truncate; make the rounding explicit (`.round() as`)
/// or justify the cast.
pub fn lossy_cast(
    file: &SourceFile,
    lexed: &LexedFile,
    mask: &[bool],
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    if !cfg
        .lossy_paths
        .iter()
        .any(|p| file.rel_path.starts_with(p.as_str()))
    {
        return;
    }
    const RULE: &str = RULES[4].name;
    let toks = &lexed.toks;
    for k in 0..toks.len() {
        if mask[k] {
            continue;
        }
        if toks[k].ident() != Some("as") {
            continue;
        }
        let Some(ty) = toks.get(k + 1).and_then(|t| t.ident()) else {
            continue;
        };
        if !INT_TYPES.contains(&ty) {
            continue;
        }
        if k == 0 {
            continue;
        }
        let prev = &toks[k - 1];
        // Integer literals cast to an integer type are not flagged.
        if prev.kind == TokKind::Num && !prev.text.contains('.') {
            continue;
        }
        // `x.round() as u64` — rounding already explicit.
        if prev.is_punct(')') && rounded_call(toks, k - 1) {
            continue;
        }
        out.push(finding(
            RULE,
            file,
            lexed,
            &toks[k],
            format!(
                "`as {ty}` in a record/analysis path truncates silently — use `.round()`/`.floor()`/`.ceil()` before the cast, or justify with `// lint: allow(lossy-cast, reason)`"
            ),
        ));
    }
}

/// Scan back from a `)` at `close`: is the matching call one of the
/// explicit rounding methods?
fn rounded_call(toks: &[Tok], close: usize) -> bool {
    let mut depth = 0i32;
    let mut j = close;
    loop {
        let t = &toks[j];
        if t.is_punct(')') {
            depth += 1;
        } else if t.is_punct('(') {
            depth -= 1;
            if depth == 0 {
                return j > 0
                    && toks[j - 1]
                        .ident()
                        .is_some_and(|id| ROUNDING_METHODS.contains(&id));
            }
        }
        if j == 0 {
            return false;
        }
        j -= 1;
    }
}

/// Rule 6 — crate-hygiene: every crate root carries
/// `#![forbid(unsafe_code)]` and a `//!` doc header.
pub fn crate_hygiene(
    file: &SourceFile,
    lexed: &LexedFile,
    _mask: &[bool],
    _cfg: &Config,
    out: &mut Vec<Finding>,
) {
    if !file.is_crate_root {
        return;
    }
    const RULE: &str = RULES[5].name;
    let toks = &lexed.toks;
    let has_forbid = (0..toks.len()).any(|k| {
        toks[k].ident() == Some("forbid")
            && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
            && toks
                .get(k + 2)
                .is_some_and(|t| t.ident() == Some("unsafe_code"))
    });
    let top = Tok {
        kind: TokKind::Punct,
        text: String::new(),
        line: 1,
        col: 1,
        lo: 0,
        hi: 0,
    };
    if !has_forbid {
        out.push(finding(
            RULE,
            file,
            lexed,
            &top,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        ));
    }
    if !lexed.has_inner_doc {
        out.push(finding(
            RULE,
            file,
            lexed,
            &top,
            "crate root is missing a `//!` doc header".to_string(),
        ));
    }
}

/// Rule 7 — disrupt-stream-namespace: inside the disruption subsystem
/// (`disrupt_paths`), every `split("…")` label must live under the
/// dedicated `campaign/faults/` namespace. A fault schedule drawn from
/// any other stream would entangle fault generation with the simulation
/// streams, so enabling faults could perturb the fault-free dataset and
/// break the off-by-default bit-identity guarantee.
pub fn disrupt_stream_namespace(
    file: &SourceFile,
    lexed: &LexedFile,
    mask: &[bool],
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    if !cfg
        .disrupt_paths
        .iter()
        .any(|p| file.rel_path.starts_with(p.as_str()))
    {
        return;
    }
    const RULE: &str = RULES[6].name;
    const NAMESPACE: &str = "campaign/faults/";
    let toks = &lexed.toks;
    for k in 0..toks.len() {
        if mask[k] {
            continue;
        }
        if toks[k].ident() != Some("split")
            || k == 0
            || !toks[k - 1].is_punct('.')
            || !toks.get(k + 1).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        let mut j = k + 2;
        if toks.get(j).is_some_and(|t| t.is_punct('&')) {
            j += 1;
        }
        let lit = match toks.get(j) {
            Some(t) if t.kind == TokKind::Str => Some(t),
            Some(t)
                if t.ident() == Some("format")
                    && toks.get(j + 1).is_some_and(|t| t.is_punct('!'))
                    && toks.get(j + 2).is_some_and(|t| t.is_punct('(')) =>
            {
                toks.get(j + 3).filter(|t| t.kind == TokKind::Str)
            }
            _ => None,
        };
        let Some(lit) = lit else { continue };
        if lit.text.starts_with(NAMESPACE) {
            continue;
        }
        out.push(finding(
            RULE,
            file,
            lexed,
            lit,
            format!(
                "RNG stream label \"{}\" in the disrupt module is outside the `{NAMESPACE}` namespace — fault schedules must never draw from simulation streams",
                lit.text
            ),
        ));
    }
}

/// Rule 8 — atomic-persistence: on persistence paths (`persist_paths`:
/// the checkpoint journal and the binaries' output writers), files must
/// land via the temp-file + atomic-rename idiom. `fs::write(..)` replaces
/// a file in place, and `File::create(..)` truncates it immediately — a
/// crash mid-write leaves a torn file at the very path a resumed run will
/// trust. `File::create` is accepted when the same function later calls
/// `rename` (the write-to-temp-then-rename idiom); `fs::write` is always
/// a finding.
pub fn atomic_persistence(
    file: &SourceFile,
    lexed: &LexedFile,
    mask: &[bool],
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    if !cfg
        .persist_paths
        .iter()
        .any(|p| file.rel_path.starts_with(p.as_str()))
    {
        return;
    }
    const RULE: &str = RULES[7].name;
    let toks = &lexed.toks;
    for k in 0..toks.len() {
        if mask[k] {
            continue;
        }
        if !toks.get(k + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        match toks[k].ident() {
            Some("write") if path_pred(toks, k, "fs") => {
                out.push(finding(
                    RULE,
                    file,
                    lexed,
                    &toks[k],
                    "`fs::write` on a persistence path replaces the file in place — a crash mid-write leaves a torn file; write a temp file and `rename` it (see `checkpoint::write_atomic`)".to_string(),
                ));
            }
            Some("create") if path_pred(toks, k, "File") && !renamed_later(toks, k) => {
                out.push(finding(
                    RULE,
                    file,
                    lexed,
                    &toks[k],
                    "`File::create` on a persistence path with no following `rename` truncates the destination before the new bytes are safe — write a temp file and `rename` it (see `checkpoint::write_atomic`)".to_string(),
                ));
            }
            _ => {}
        }
    }
}

/// Does a `rename` call appear after `toks[k]`, before the next `fn`
/// item? An approximation of "same function as the `File::create`" that
/// is exact for the write-temp-then-rename idiom this rule exists to
/// enforce.
fn renamed_later(toks: &[Tok], k: usize) -> bool {
    toks[k + 1..].iter().find_map(|t| match t.ident() {
        Some("fn") => Some(false),
        Some("rename") => Some(true),
        _ => None,
    }) == Some(true)
}

/// Rule 9 — columnar-kernel: in the batched analysis paths
/// (`columnar_paths`), the per-row projection `.iter().map(|s| s.field)`
/// walks an array of structs one row at a time, dragging every field of
/// every record through cache to read one. Kernels there scan the
/// contiguous column slices instead (the `*_cols` kernels and
/// `Kpi::gather`), where the same projection is a sequential read of one
/// `Vec`. Index gathers like `.iter().map(|&i| …)` bind by pattern, not
/// a bare identifier, and are not matched.
pub fn columnar_kernel(
    file: &SourceFile,
    lexed: &LexedFile,
    mask: &[bool],
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    if !cfg
        .columnar_paths
        .iter()
        .any(|p| file.rel_path.starts_with(p.as_str()))
    {
        return;
    }
    const RULE: &str = RULES[8].name;
    let toks = &lexed.toks;
    for k in 0..toks.len() {
        if mask[k] {
            continue;
        }
        // `.iter().map(|s| s.field)` — row-at-a-time field projection.
        if toks[k].ident() != Some("iter")
            || k == 0
            || !toks[k - 1].is_punct('.')
            || !toks.get(k + 1).is_some_and(|t| t.is_punct('('))
            || !toks.get(k + 2).is_some_and(|t| t.is_punct(')'))
            || !toks.get(k + 3).is_some_and(|t| t.is_punct('.'))
            || toks.get(k + 4).and_then(|t| t.ident()) != Some("map")
            || !toks.get(k + 5).is_some_and(|t| t.is_punct('('))
            || !toks.get(k + 6).is_some_and(|t| t.is_punct('|'))
        {
            continue;
        }
        let Some(param) = toks.get(k + 7).and_then(|t| t.ident()) else {
            continue;
        };
        if !toks.get(k + 8).is_some_and(|t| t.is_punct('|'))
            || toks.get(k + 9).and_then(|t| t.ident()) != Some(param)
            || !toks.get(k + 10).is_some_and(|t| t.is_punct('.'))
        {
            continue;
        }
        let Some(field) = toks.get(k + 11).and_then(|t| t.ident()) else {
            continue;
        };
        if !toks.get(k + 12).is_some_and(|t| t.is_punct(')')) {
            continue;
        }
        out.push(finding(
            RULE,
            file,
            lexed,
            &toks[k],
            format!(
                "`.iter().map(|{param}| {param}.{field})` walks rows struct-by-struct in a batched analysis path — gather from the contiguous `{field}` column slice (see the `*_cols` kernels), or justify with `// lint: allow(columnar-kernel, reason)`"
            ),
        ));
    }
}

/// Identifier fragments that mark a retry/poll loop as bounded: a stop
/// flag consulted, a deadline or timeout compared, elapsed time read,
/// or an attempt/iteration budget counted. Matching is by lowercase
/// substring so `stopping()`, `past_deadline()`, `CHILD_TIMEOUT`, and
/// `attempts_left` all count.
const RETRY_BOUND_MARKERS: [&str; 9] = [
    "stop", "deadline", "elapsed", "timeout", "attempt", "remain", "budget", "tries", "retries",
];

/// Rule 10 — bounded-retry: on the always-on service and soak-harness
/// paths (`retry_paths`), a `loop`/`while` body that sleeps is a
/// retry or poll loop, and it must visibly bound itself — consult a
/// stop flag, compare a deadline/timeout, read elapsed time, or count
/// an attempt budget ([`RETRY_BOUND_MARKERS`], checked across the loop
/// head and body). An unbounded sleep loop spins forever against a
/// peer that never recovers, which on the serve path means a worker
/// thread that survives shutdown and on the stress path a soak that
/// wedges instead of reporting. `for` loops are exempt: their iterator
/// is the bound.
pub fn bounded_retry(
    file: &SourceFile,
    lexed: &LexedFile,
    mask: &[bool],
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    if !cfg
        .retry_paths
        .iter()
        .any(|p| file.rel_path.starts_with(p.as_str()))
    {
        return;
    }
    const RULE: &str = RULES[9].name;
    let toks = &lexed.toks;
    for k in 0..toks.len() {
        if mask[k] {
            continue;
        }
        let Some(kw @ ("loop" | "while")) = toks[k].ident() else {
            continue;
        };
        // `.loop`/`::loop` etc. can't occur; but skip `while` arms of
        // macro fragments like `$( … )while` defensively: require the
        // keyword position to start a statement-ish context (previous
        // token is not `.` or `::`-colon).
        if k > 0 && (toks[k - 1].is_punct('.') || toks[k - 1].is_punct(':')) {
            continue;
        }
        // Find the body opener: for `loop` the next token; for `while`
        // the first `{` outside parens/brackets (struct literals are
        // not legal in a `while` condition without parens).
        let mut open = None;
        let mut depth = 0i32;
        let mut j = k + 1;
        while let Some(t) = toks.get(j) {
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct('{') && depth == 0 {
                open = Some(j);
                break;
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        // Walk the balanced body; the `while` condition tokens
        // (k+1..open) participate in the bound scan — `while
        // !stop.load(..)` is the canonical bound.
        let mut end = open;
        let mut brace = 0i32;
        while let Some(t) = toks.get(end) {
            if t.is_punct('{') {
                brace += 1;
            } else if t.is_punct('}') {
                brace -= 1;
                if brace == 0 {
                    break;
                }
            }
            end += 1;
        }
        let body = &toks[k + 1..end.min(toks.len())];
        let sleeps = body.iter().any(|t| {
            t.ident()
                .is_some_and(|id| id.to_ascii_lowercase().contains("sleep"))
        });
        if !sleeps {
            continue;
        }
        let bounded = body.iter().any(|t| {
            t.ident().is_some_and(|id| {
                let lower = id.to_ascii_lowercase();
                RETRY_BOUND_MARKERS.iter().any(|m| lower.contains(m))
            })
        });
        if bounded {
            continue;
        }
        out.push(finding(
            RULE,
            file,
            lexed,
            &toks[k],
            format!(
                "`{kw}` loop sleeps with no visible bound on a service/soak path — consult a stop flag, compare a deadline or timeout, or count an attempt budget, or justify with `// lint: allow(bounded-retry, reason)`"
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_scheme() {
        assert!(label_well_formed("geo/speed"));
        assert!(label_well_formed("campaign/{}/{}"));
        assert!(label_well_formed("probe/rtt/{id}"));
        assert!(!label_well_formed("trace"));
        assert!(!label_well_formed("city{i}"));
        assert!(!label_well_formed("/x"));
        assert!(!label_well_formed("area/"));
        assert!(!label_well_formed("Area/x"));
    }

    #[test]
    fn rounding_scan() {
        let lexed = crate::lexer::lex("let x = (a.round() as u64, a.min(b) as u64);");
        let toks = &lexed.toks;
        let closes: Vec<usize> = (0..toks.len()).filter(|k| toks[*k].is_punct(')')).collect();
        assert!(rounded_call(toks, closes[0]));
        assert!(!rounded_call(toks, closes[1]));
    }
}
