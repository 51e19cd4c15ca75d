//! Workspace symbol table and approximate call graph.
//!
//! Flattens the per-file item trees into a table of fn definitions
//! (keyed by name, with impl owner where applicable) plus the struct
//! names defined per file, then scans every fn body for call sites and
//! resolves them by callee name. Resolution is deliberately approximate
//! — no type inference, no import tracking — but biased to be useful on
//! this workspace's idiom:
//!
//! * `Owner::name(…)` keeps only candidates whose impl owner matches the
//!   path segment before `::` (`Self` maps to the caller's own owner);
//!   when nothing matches the segment is treated as a module path and
//!   free fns win.
//! * `recv.name(…)` method calls keep impl-associated candidates, and
//!   narrow to the caller's own impl when the receiver is literally
//!   `self`.
//! * Bare `name(…)` calls prefer free fns.
//!
//! Unresolvable names (std/vendored callees, tuple-struct constructors)
//! simply get no edges; the dataflow passes treat those as opaque.

use std::collections::BTreeMap;

use crate::lexer::{LexedFile, TokKind};
use crate::tier2::parse::{walk, FileAst, ItemKind};

/// One fn definition anywhere in the workspace.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index into the workspace file list.
    pub file: usize,
    /// Fn name.
    pub name: String,
    /// Impl self-type (or trait) name when associated, `None` for free
    /// fns.
    pub owner: Option<String>,
    /// Parameter names in order (`self` included when present).
    pub params: Vec<String>,
    /// Return-type token text (empty for unit).
    pub ret: String,
    /// Token range of the body contents, `None` for bodyless trait
    /// method declarations.
    pub body: Option<(usize, usize)>,
    /// Position of the definition.
    pub line: u32,
    /// Position of the definition.
    pub col: u32,
}

/// One struct (or union) definition.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Index into the workspace file list.
    pub file: usize,
    /// Type name.
    pub name: String,
}

/// The workspace symbol table.
#[derive(Debug, Default)]
pub struct Symbols {
    /// Every fn definition, in (file, source) order.
    pub fns: Vec<FnDef>,
    /// Name → indices into [`Self::fns`].
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Every struct definition.
    pub structs: Vec<StructDef>,
}

impl Symbols {
    /// Collect fn and struct definitions from parsed files. Items whose
    /// first token is test-masked are skipped entirely — test code never
    /// enters the symbol table.
    pub fn collect(asts: &[FileAst], masks: &[Vec<bool>]) -> Symbols {
        let mut sym = Symbols::default();
        for (file, ast) in asts.iter().enumerate() {
            let mask = &masks[file];
            walk(&ast.items, &mut |item, parent| {
                if mask.get(item.toks.0).copied().unwrap_or(false) {
                    return;
                }
                match item.kind {
                    ItemKind::Fn => {
                        let sig = item.sig.as_ref().expect("fn items carry a signature");
                        let owner = parent
                            .filter(|p| matches!(p.kind, ItemKind::Impl | ItemKind::Trait))
                            .map(|p| p.name.clone());
                        let idx = sym.fns.len();
                        sym.by_name.entry(item.name.clone()).or_default().push(idx);
                        sym.fns.push(FnDef {
                            file,
                            name: item.name.clone(),
                            owner,
                            params: sig.params.clone(),
                            ret: sig.ret.clone(),
                            body: sig.body,
                            line: item.line,
                            col: item.col,
                        });
                    }
                    ItemKind::Struct => sym.structs.push(StructDef {
                        file,
                        name: item.name.clone(),
                    }),
                    _ => {}
                }
            });
        }
        sym
    }
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name as written.
    pub callee: String,
    /// Path segment immediately before `::` for qualified calls.
    pub qualifier: Option<String>,
    /// `true` for `recv.name(…)` method syntax.
    pub is_method: bool,
    /// `true` when the method receiver is literally `self`.
    pub self_receiver: bool,
    /// Token index of the callee name.
    pub name_tok: usize,
    /// Half-open token ranges of the top-level arguments.
    pub args: Vec<(usize, usize)>,
    /// Resolved candidate callees (indices into [`Symbols::fns`]).
    pub resolved: Vec<usize>,
}

/// Per-caller call sites: `calls[fn_index]` lists the sites inside that
/// fn's body, in source order.
pub type CallGraph = Vec<Vec<CallSite>>;

/// Rust keywords that look like `ident (` but are never calls.
const NON_CALL_KEYWORDS: [&str; 16] = [
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "else", "move", "ref",
    "mut", "box", "await", "where",
];

/// Scan every fn body for call sites and resolve them against `sym`.
pub fn call_graph(sym: &Symbols, lexed: &[LexedFile], masks: &[Vec<bool>]) -> CallGraph {
    let mut graph = Vec::with_capacity(sym.fns.len());
    for def in &sym.fns {
        let mut sites = Vec::new();
        if let Some((lo, hi)) = def.body {
            let toks = &lexed[def.file].toks;
            let mask = &masks[def.file];
            let mut k = lo;
            while k + 1 < hi {
                if mask.get(k).copied().unwrap_or(false) {
                    k += 1;
                    continue;
                }
                let is_call = toks[k].kind == TokKind::Ident
                    && toks[k + 1].is_punct('(')
                    && !NON_CALL_KEYWORDS.contains(&toks[k].text.as_str())
                    && !(k > 0 && toks[k - 1].ident() == Some("fn"));
                if !is_call {
                    k += 1;
                    continue;
                }
                let callee = toks[k].text.clone();
                let is_method = k > 0 && toks[k - 1].is_punct('.');
                let self_receiver = is_method && k >= 2 && toks[k - 2].ident() == Some("self");
                let qualifier = (!is_method
                    && k >= 3
                    && toks[k - 1].is_punct(':')
                    && toks[k - 2].is_punct(':'))
                .then(|| toks[k - 3].ident().map(str::to_string))
                .flatten();
                let close = close_paren(toks, k + 1, hi);
                let args = split_args(toks, k + 2, close);
                let resolved = resolve(sym, &callee, qualifier.as_deref(), is_method, {
                    if self_receiver || qualifier.as_deref() == Some("Self") {
                        def.owner.as_deref()
                    } else {
                        None
                    }
                });
                sites.push(CallSite {
                    callee,
                    qualifier,
                    is_method,
                    self_receiver,
                    name_tok: k,
                    args,
                    resolved,
                });
                // Continue *inside* the argument list — nested calls are
                // sites too.
                k += 2;
            }
        }
        graph.push(sites);
    }
    graph
}

/// Index one past the `)` matching the `(` at `open` (clamped to `hi`).
fn close_paren(toks: &[crate::lexer::Tok], open: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    let mut k = open;
    while k < hi {
        if toks[k].is_punct('(') {
            depth += 1;
        } else if toks[k].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
        k += 1;
    }
    hi
}

/// Split the token range between a call's parens at top-level commas.
/// Closure parameter lists (`|a, b|`) are skipped so their commas don't
/// split the surrounding argument.
fn split_args(toks: &[crate::lexer::Tok], lo: usize, hi: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = lo;
    let mut k = lo;
    while k < hi {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct('|')
            && depth == 0
            && k > lo
            && (toks[k - 1].is_punct(',')
                || toks[k - 1].is_punct('(')
                || toks[k - 1].ident() == Some("move"))
        {
            // Closure param list: jump past the closing `|`.
            let mut j = k + 1;
            while j < hi && !toks[j].is_punct('|') {
                j += 1;
            }
            k = j + 1;
            continue;
        } else if t.is_punct(',') && depth == 0 {
            if start < k {
                out.push((start, k));
            }
            start = k + 1;
        }
        k += 1;
    }
    if start < hi {
        out.push((start, hi));
    }
    out
}

/// Candidate callees for a call site.
fn resolve(
    sym: &Symbols,
    name: &str,
    qualifier: Option<&str>,
    is_method: bool,
    self_owner: Option<&str>,
) -> Vec<usize> {
    let Some(cands) = sym.by_name.get(name) else {
        return Vec::new();
    };
    let with = |pred: &dyn Fn(&FnDef) -> bool| -> Vec<usize> {
        cands
            .iter()
            .copied()
            .filter(|&i| pred(&sym.fns[i]))
            .collect()
    };
    if let Some(owner) = self_owner {
        let own = with(&|f| f.owner.as_deref() == Some(owner));
        if !own.is_empty() {
            return own;
        }
    }
    if let Some(q) = qualifier {
        if q != "Self" {
            let owned = with(&|f| f.owner.as_deref() == Some(q));
            if !owned.is_empty() {
                return owned;
            }
            // Module-path qualifier: free fns.
            let free = with(&|f| f.owner.is_none());
            if !free.is_empty() {
                return free;
            }
        }
        return cands.clone();
    }
    if is_method {
        let assoc = with(&|f| f.owner.is_some());
        if !assoc.is_empty() {
            return assoc;
        }
        return cands.clone();
    }
    let free = with(&|f| f.owner.is_none());
    if !free.is_empty() {
        return free;
    }
    cands.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_mask};
    use crate::tier2::parse::parse;

    fn build(srcs: &[&str]) -> (Symbols, Vec<LexedFile>, Vec<Vec<bool>>, CallGraph) {
        let lexed: Vec<LexedFile> = srcs.iter().map(|s| lex(s)).collect();
        let masks: Vec<Vec<bool>> = lexed.iter().map(|l| test_mask(&l.toks)).collect();
        let asts: Vec<_> = lexed.iter().map(|l| parse(&l.toks)).collect();
        let sym = Symbols::collect(&asts, &masks);
        let graph = call_graph(&sym, &lexed, &masks);
        (sym, lexed, masks, graph)
    }

    #[test]
    fn cross_file_resolution_by_owner() {
        let (sym, _, _, graph) = build(&[
            "pub struct J;\nimpl J {\n    pub fn push(&mut self) {}\n}\npub fn push() {}\n",
            "fn caller(j: &mut J) {\n    j.push();\n    push();\n    J::push();\n}\n",
        ]);
        let caller = sym.by_name["caller"][0];
        let sites = &graph[caller];
        assert_eq!(sites.len(), 3);
        // Method call resolves to the impl fn.
        assert_eq!(sites[0].resolved.len(), 1);
        assert!(sym.fns[sites[0].resolved[0]].owner.is_some());
        // Bare call prefers the free fn.
        assert_eq!(sites[1].resolved.len(), 1);
        assert!(sym.fns[sites[1].resolved[0]].owner.is_none());
        // Qualified call resolves to the impl fn.
        assert_eq!(sites[2].resolved.len(), 1);
        assert_eq!(sym.fns[sites[2].resolved[0]].owner.as_deref(), Some("J"));
    }

    #[test]
    fn self_calls_narrow_to_own_impl() {
        let (sym, _, _, graph) = build(&[
            "struct A;\nimpl A {\n    fn go(&self) { self.step(); Self::leap(); }\n    fn step(&self) {}\n    fn leap() {}\n}\nstruct B;\nimpl B {\n    fn step(&self) {}\n    fn leap() {}\n}\n",
        ]);
        let go = sym.by_name["go"][0];
        for site in &graph[go] {
            assert_eq!(site.resolved.len(), 1, "{:?}", site);
            assert_eq!(
                sym.fns[site.resolved[0]].owner.as_deref(),
                Some("A"),
                "{:?}",
                site
            );
        }
    }

    #[test]
    fn closure_commas_do_not_split_args() {
        let (sym, _, _, graph) = build(&[
            "fn f(a: f64, g: impl Fn(f64, f64) -> f64) -> f64 { g(a, a) }\nfn h() -> f64 { f(0.0, |x, y| x + y) }\n",
        ]);
        let h = sym.by_name["h"][0];
        let call_f = graph[h]
            .iter()
            .find(|s| s.callee == "f")
            .expect("call to f");
        assert_eq!(call_f.args.len(), 2, "{:?}", call_f.args);
    }

    #[test]
    fn test_code_stays_out_of_the_table() {
        let (sym, _, _, _) =
            build(&["fn real() {}\n#[cfg(test)]\nmod tests {\n    fn fake() {}\n}\n"]);
        assert!(sym.by_name.contains_key("real"));
        assert!(!sym.by_name.contains_key("fake"));
    }
}
