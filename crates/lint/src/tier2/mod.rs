//! Tier 2: cross-file dataflow passes.
//!
//! Tier 1 (`rules.rs`) is token-pattern matching inside one file. Tier 2
//! parses every file into item ASTs ([`parse`]), builds a workspace
//! symbol table and approximate call graph ([`symbols`]), and runs four
//! dataflow passes on top:
//!
//! * [`taint`] — `determinism-taint`: nondeterministic values
//!   (wall-clock reads, hash-iteration order, host-core counts,
//!   pointer addresses) tracked interprocedurally into dataset/
//!   checkpoint/report sinks.
//! * [`streamflow`] — `rng-stream-labels`: every `split(label)` site's
//!   values — the literal or `format!` skeleton written there, plus what
//!   flow resolves through locals, parameters and callee return
//!   literals — held to the `area/rest` scheme, workspace uniqueness,
//!   and the `campaign/faults/` fence in both directions.
//! * [`persist`] — `atomic-persistence`: on persistence paths, no
//!   in-place `fs::write`, every `File::create` renamed into place, and
//!   an fsync (directly or via a callee) before that rename.
//! * [`floatfold`] — `unordered-float-reduction`: non-commutative `f64`
//!   folds fed from unordered (hash-container / channel) iteration.
//!
//! Passes emit *raw* findings — `// lint: allow` suppression and the
//! stale-allow audit are applied by `lint_sources` in `lib.rs`, uniformly
//! with tier 1.

pub mod floatfold;
pub mod parse;
pub mod persist;
pub mod streamflow;
pub mod symbols;
pub mod taint;

use crate::config::TIER2_EXEMPT_CRATES;
use crate::lexer::{LexedFile, Tok, TokKind};
use crate::report::Finding;
use crate::workspace::SourceFile;
use parse::FileAst;
use symbols::{CallGraph, Symbols};

/// Everything the passes share: parsed files, symbols, call graph.
pub struct Tier2<'a> {
    /// Workspace files, parallel to `lexed` / `masks` / `asts`.
    pub files: &'a [SourceFile],
    /// Lexed token streams.
    pub lexed: &'a [LexedFile],
    /// Per-file test masks.
    pub masks: &'a [Vec<bool>],
    /// Per-file item trees.
    pub asts: Vec<FileAst>,
    /// Workspace symbol table.
    pub sym: Symbols,
    /// Call sites per fn in [`Symbols::fns`] order.
    pub graph: CallGraph,
}

impl<'a> Tier2<'a> {
    /// Parse every file and build the symbol table + call graph.
    pub fn build(
        files: &'a [SourceFile],
        lexed: &'a [LexedFile],
        masks: &'a [Vec<bool>],
    ) -> Tier2<'a> {
        let asts: Vec<FileAst> = lexed.iter().map(|l| parse::parse(&l.toks)).collect();
        let sym = Symbols::collect(&asts, masks);
        let graph = symbols::call_graph(&sym, lexed, masks);
        Tier2 {
            files,
            lexed,
            masks,
            asts,
            sym,
            graph,
        }
    }

    /// Run all four passes, appending raw findings.
    pub fn run(&self, out: &mut Vec<Finding>) {
        taint::run(self, out);
        streamflow::run(self, out);
        persist::run(self, out);
        floatfold::run(self, out);
    }

    /// Is this fn's file exempt from the taint and float-fold passes?
    pub(crate) fn exempt(&self, file: usize) -> bool {
        TIER2_EXEMPT_CRATES.contains(&self.files[file].crate_name.as_str())
    }
}

/// One local binding inside a fn body: `let` (with optional reassignments
/// folded in) or a `for`-loop pattern variable.
#[derive(Debug, Clone)]
pub struct Local {
    /// Binding name.
    pub name: String,
    /// Type-annotation token range, when written.
    pub ty: Option<(usize, usize)>,
    /// Right-hand-side token ranges: the `let` initializer plus any
    /// later `name = …` / `name op= …` reassignments (for `for` loops,
    /// the iterated expression).
    pub rhs: Vec<(usize, usize)>,
    /// Bound by a `for` pattern (taints only through iteration-order
    /// sources, never through numeric bounds).
    pub for_loop: bool,
}

/// Collect the local bindings of a body token range, in source order.
/// Flow-insensitive: a name rebound twice gets the union of its RHS
/// ranges under one entry.
pub(crate) fn locals_in(toks: &[Tok], lo: usize, hi: usize) -> Vec<Local> {
    fn push(
        out: &mut Vec<Local>,
        name: &str,
        ty: Option<(usize, usize)>,
        rhs: Option<(usize, usize)>,
        fl: bool,
    ) {
        if name == "_" || name.is_empty() {
            return;
        }
        if let Some(existing) = out.iter_mut().find(|l| l.name == name) {
            existing.rhs.extend(rhs);
            return;
        }
        out.push(Local {
            name: name.to_string(),
            ty,
            rhs: rhs.into_iter().collect(),
            for_loop: fl,
        });
    }
    let mut out: Vec<Local> = Vec::new();
    let mut k = lo;
    while k < hi {
        match toks[k].ident() {
            Some("let") => {
                // Pattern idents up to `:` / `=` / `;` at pattern depth 0.
                let mut names = Vec::new();
                let mut j = k + 1;
                let mut depth = 0i32;
                while j < hi {
                    let t = &toks[j];
                    if t.is_punct('(') || t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') {
                        depth -= 1;
                    } else if depth == 0 && (t.is_punct(':') || t.is_punct('=') || t.is_punct(';'))
                    {
                        break;
                    } else if let Some(id) = t.ident() {
                        if id != "mut" && id != "ref" && id != "box" {
                            names.push(id.to_string());
                        }
                    }
                    j += 1;
                }
                // Optional type annotation.
                let mut ty = None;
                if j < hi && toks[j].is_punct(':') {
                    let ty_start = j + 1;
                    let mut depth = 0i32;
                    j += 1;
                    while j < hi {
                        let t = &toks[j];
                        if t.is_punct('(') || t.is_punct('[') {
                            depth += 1;
                        } else if t.is_punct(')') || t.is_punct(']') {
                            depth -= 1;
                        } else if depth == 0 && (t.is_punct('=') || t.is_punct(';')) {
                            break;
                        }
                        j += 1;
                    }
                    ty = Some((ty_start, j));
                }
                // Initializer: up to `;` at depth 0, or a `{` at depth 0
                // (an `if let` / `while let` block opener).
                let mut rhs = None;
                if j < hi
                    && toks[j].is_punct('=')
                    && !toks.get(j + 1).is_some_and(|t| t.is_punct('='))
                {
                    let rhs_start = j + 1;
                    let mut depth = 0i32;
                    j += 1;
                    while j < hi {
                        let t = &toks[j];
                        if t.is_punct('(') || t.is_punct('[') {
                            depth += 1;
                        } else if t.is_punct(')') || t.is_punct(']') {
                            depth -= 1;
                        } else if depth == 0 && (t.is_punct(';') || t.is_punct('{')) {
                            break;
                        }
                        j += 1;
                    }
                    if rhs_start < j {
                        rhs = Some((rhs_start, j));
                    }
                }
                for n in names {
                    push(&mut out, &n, ty, rhs, false);
                }
                k = j.max(k + 1);
            }
            Some("for") => {
                // `for PAT in EXPR {` — bind pattern idents to EXPR.
                let mut names = Vec::new();
                let mut j = k + 1;
                while j < hi && toks[j].ident() != Some("in") {
                    if let Some(id) = toks[j].ident() {
                        if id != "mut" && id != "ref" {
                            names.push(id.to_string());
                        }
                    }
                    // A `for` with no `in` before the block is not a loop
                    // (e.g. `impl Trait for T` never appears in bodies,
                    // but stay bounded anyway).
                    if toks[j].is_punct('{') || toks[j].is_punct(';') {
                        names.clear();
                        break;
                    }
                    j += 1;
                }
                if !names.is_empty() && j < hi {
                    let expr_start = j + 1;
                    let mut depth = 0i32;
                    j += 1;
                    while j < hi {
                        let t = &toks[j];
                        if t.is_punct('(') || t.is_punct('[') {
                            depth += 1;
                        } else if t.is_punct(')') || t.is_punct(']') {
                            depth -= 1;
                        } else if depth == 0 && t.is_punct('{') {
                            break;
                        }
                        j += 1;
                    }
                    if expr_start < j {
                        for n in names {
                            push(&mut out, &n, None, Some((expr_start, j)), true);
                        }
                    }
                }
                k = j.max(k + 1);
            }
            Some(name)
                if toks.get(k + 1).is_some_and(|t| t.is_punct('='))
                    && !toks.get(k + 2).is_some_and(|t| t.is_punct('='))
                    && (k == lo
                        || toks[k - 1].is_punct(';')
                        || toks[k - 1].is_punct('{')
                        || toks[k - 1].is_punct('}'))
                    && out.iter().any(|l| l.name == name) =>
            {
                // Reassignment of a known local at statement position.
                let rhs_start = k + 2;
                let mut depth = 0i32;
                let mut j = rhs_start;
                while j < hi {
                    let t = &toks[j];
                    if t.is_punct('(') || t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') {
                        depth -= 1;
                    } else if depth == 0 && (t.is_punct(';') || t.is_punct('{')) {
                        break;
                    }
                    j += 1;
                }
                if rhs_start < j {
                    push(&mut out, name, None, Some((rhs_start, j)), false);
                }
                k = j.max(k + 1);
            }
            _ => k += 1,
        }
    }
    out
}

/// The token ranges whose values a body can return: every
/// `return <expr>;` plus the tail expression (tokens after the last `;`
/// at block depth 0; the whole body when there is none).
pub(crate) fn return_ranges(toks: &[Tok], lo: usize, hi: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut last_semi = None;
    let mut k = lo;
    while k < hi {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            last_semi = Some(k);
        } else if t.ident() == Some("return") {
            // `return expr ;` / `return expr }` at any depth.
            let start = k + 1;
            let mut d = 0i32;
            let mut j = start;
            while j < hi {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    d += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    if d == 0 {
                        break;
                    }
                    d -= 1;
                } else if t.is_punct(';') && d == 0 {
                    break;
                }
                j += 1;
            }
            if start < j {
                out.push((start, j));
            }
            k = j;
            continue;
        }
        k += 1;
    }
    let tail_start = last_semi.map_or(lo, |s| s + 1);
    if tail_start < hi {
        out.push((tail_start, hi));
    }
    out
}

/// Do any of this fn's call sites fall inside `range`? Yields them.
pub(crate) fn sites_in(
    sites: &[symbols::CallSite],
    range: (usize, usize),
) -> impl Iterator<Item = &symbols::CallSite> {
    sites
        .iter()
        .filter(move |s| s.name_tok >= range.0 && s.name_tok < range.1)
}

/// True when a type-annotation or initializer range mentions a hash
/// container.
pub(crate) fn mentions_hash(toks: &[Tok], range: (usize, usize)) -> bool {
    toks[range.0..range.1]
        .iter()
        .any(|t| matches!(t.ident(), Some("HashMap" | "HashSet")))
}

/// True when a range mentions an mpsc channel endpoint.
pub(crate) fn mentions_channel(toks: &[Tok], range: (usize, usize)) -> bool {
    toks[range.0..range.1]
        .iter()
        .any(|t| matches!(t.ident(), Some("Receiver" | "channel" | "sync_channel")))
}

/// Is the ident at `k` a *value use* (not a call name, not a path
/// segment, not a field name after `.`, not a struct-field label)?
pub(crate) fn is_value_use(toks: &[Tok], k: usize) -> bool {
    if toks[k].kind != TokKind::Ident {
        return false;
    }
    if toks.get(k + 1).is_some_and(|t| t.is_punct('(')) {
        return false;
    }
    if k >= 1 && (toks[k - 1].is_punct('.') || toks[k - 1].is_punct(':')) {
        return false;
    }
    // `name :` is a struct-field label or type ascription, except `name ::`.
    if toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
        && !toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
    {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn locals_capture_let_for_and_reassignment() {
        let f = lex(
            "fn f() { let mut x = seed(); x = other(); let y: u64 = 3; for (k, v) in map.iter() { use_it(k, v); } }",
        );
        let loc = locals_in(&f.toks, 0, f.toks.len());
        let x = loc.iter().find(|l| l.name == "x").expect("x bound");
        assert_eq!(x.rhs.len(), 2);
        assert!(!x.for_loop);
        let y = loc.iter().find(|l| l.name == "y").expect("y bound");
        assert!(y.ty.is_some());
        let k = loc.iter().find(|l| l.name == "k").expect("k bound");
        assert!(k.for_loop);
        assert_eq!(k.rhs.len(), 1);
    }

    #[test]
    fn if_let_initializer_stops_at_block() {
        let f = lex("fn f() { if let Some(x) = rx.recv() { go(x); } }");
        let loc = locals_in(&f.toks, 0, f.toks.len());
        let x = loc.iter().find(|l| l.name == "x").expect("x bound");
        let (lo, hi) = x.rhs[0];
        let text: Vec<&str> = f.toks[lo..hi].iter().map(|t| t.text.as_str()).collect();
        assert_eq!(text, vec!["rx", ".", "recv", "(", ")"]);
    }

    #[test]
    fn return_ranges_cover_tail_and_returns() {
        let f = lex("{ if done { return early; } let a = 1; a + b }");
        let ranges = return_ranges(&f.toks, 1, f.toks.len() - 1);
        assert_eq!(ranges.len(), 2);
        let texts: Vec<String> = ranges
            .iter()
            .map(|&(lo, hi)| {
                f.toks[lo..hi]
                    .iter()
                    .map(|t| t.text.clone())
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        assert_eq!(texts, vec!["early".to_string(), "a + b".to_string()]);
    }

    #[test]
    fn whole_body_is_tail_when_no_semicolons() {
        let f = lex("{ cfg.threads.unwrap_or_else(|| host()).clamp(1, jobs) }");
        let ranges = return_ranges(&f.toks, 1, f.toks.len() - 1);
        assert_eq!(ranges, vec![(1, f.toks.len() - 1)]);
    }
}
