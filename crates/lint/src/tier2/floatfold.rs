//! Pass: `unordered-float-reduction`.
//!
//! Floating-point addition is not associative: summing the same `f64`
//! multiset in two different orders can produce two different results.
//! That is fatal in the analysis kernels and the campaign merge, where
//! the reproducibility contract says byte-identical output at any thread
//! count. This pass flags non-commutative `f64` reductions (`.sum()`,
//! `.product()`, float-seeded `.fold(0.0, …)`) whose receiver chain is
//! rooted in an *unordered* source:
//!
//! * a local bound to a `HashMap`/`HashSet` (iteration order is
//!   arbitrary), or
//! * a local bound to an mpsc channel endpoint (`Receiver`, `channel`,
//!   `sync_channel` — worker completion order is scheduling-dependent),
//!   or
//! * a call anywhere in the chain — its head, or a method or path call
//!   in the middle (`stats.bytes_by_frame().values()`) — to a fn whose
//!   return type mentions a hash container.
//!
//! `fold`s whose closure is `max`/`min` are skipped (order-insensitive
//! on the totally-ordered values these kernels feed them), as are
//! integer reductions — integer `+` is associative, so an unordered
//! *sum* of counts is still deterministic; only the float fold cares
//! about order. Scope: files under `FLOAT_FOLD_PATHS` (the analysis
//! kernels and the campaign orchestrator).

use crate::config::{in_paths, FLOAT_FOLD_PATHS};
use crate::lexer::{Tok, TokKind};
use crate::report::Finding;
use crate::rules::finding;
use crate::tier2::{locals_in, mentions_channel, mentions_hash, Tier2};

/// Run the pass.
pub fn run(t2: &Tier2, out: &mut Vec<Finding>) {
    let returns_hash = |name: &str| {
        t2.sym.by_name.get(name).is_some_and(|cands| {
            cands.iter().any(|&ri| {
                let ret = &t2.sym.fns[ri].ret;
                ret.contains("HashMap") || ret.contains("HashSet")
            })
        })
    };
    for def in t2.sym.fns.iter() {
        let file = &t2.files[def.file];
        if !in_paths(&file.rel_path, FLOAT_FOLD_PATHS) || t2.exempt(def.file) {
            continue;
        }
        let Some((lo, hi)) = def.body else { continue };
        let toks = &t2.lexed[def.file].toks;
        let mask = &t2.masks[def.file];
        let locals = locals_in(toks, lo, hi);
        let unordered = |name: &str| -> Option<&'static str> {
            let l = locals.iter().find(|l| l.name == name)?;
            let ranges = l.ty.iter().chain(l.rhs.iter());
            for &r in ranges {
                if mentions_hash(toks, r) {
                    return Some("a hash container (arbitrary iteration order)");
                }
                if mentions_channel(toks, r) {
                    return Some("a channel endpoint (scheduling-dependent order)");
                }
            }
            None
        };
        for k in lo..hi {
            if mask[k] {
                continue;
            }
            let Some(method) = toks[k].ident() else {
                continue;
            };
            if !(k >= 1 && toks[k - 1].is_punct('.')) {
                continue;
            }
            let is_float = match method {
                "sum" | "product" => has_f64_turbofish(toks, k, hi),
                "fold" => fold_is_float_accum(toks, k, hi),
                _ => continue,
            };
            if !is_float {
                continue;
            }
            let chain = chain_idents(toks, k - 1, lo);
            let Some(&head) = chain.last() else {
                continue;
            };
            // The head may be an unordered local; the head or any call
            // along the chain may return a hash container.
            let why = unordered(&toks[head].text)
                .map(|why| (head, why))
                .or_else(|| {
                    chain
                        .iter()
                        .find(|&&i| (i == head || is_call(toks, i)) && returns_hash(&toks[i].text))
                        .map(|&i| (i, "a call returning a hash container"))
                });
            let Some((src, why)) = why else { continue };
            out.push(finding(
                "unordered-float-reduction",
                file,
                &t2.lexed[def.file],
                &toks[k],
                format!(
                    "`.{method}` reduces f64 values fed from `{}`, {why} — float addition is not associative, so the result depends on visit order; collect into an ordered container (or sort) before reducing",
                    toks[src].text
                ),
            ));
        }
    }
}

/// `.sum::<f64>(` — only explicitly-f64 reductions are flagged; integer
/// sums are associative.
fn has_f64_turbofish(toks: &[Tok], k: usize, hi: usize) -> bool {
    toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(k + 3).is_some_and(|t| t.is_punct('<'))
        && (k + 4 < hi)
        && toks[k + 4].ident() == Some("f64")
}

/// `.fold(0.0, |…| …)` with a float-literal seed and a closure that is
/// not a pure `max`/`min` selection.
fn fold_is_float_accum(toks: &[Tok], k: usize, hi: usize) -> bool {
    if !toks.get(k + 1).is_some_and(|t| t.is_punct('(')) {
        return false;
    }
    let seed_is_float = toks
        .get(k + 2)
        .is_some_and(|t| t.kind == TokKind::Num && t.text.contains('.'));
    if !seed_is_float {
        return false;
    }
    // Scan the rest of the call for max/min — those folds commute.
    let mut depth = 0i32;
    for t in &toks[k + 1..hi] {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if matches!(t.ident(), Some("max" | "min")) {
            return false;
        }
    }
    true
}

/// Is the identifier at `k` called: `name(` or `name::<…>(`?
fn is_call(toks: &[Tok], k: usize) -> bool {
    let at = |d: usize, c: char| toks.get(k + d).is_some_and(|t| t.is_punct(c));
    at(1, '(') || (at(1, ':') && at(3, '<'))
}

/// Walk a method chain backwards from the `.` at `dot` and return the
/// token indices of its identifiers, rightmost first, skipping the
/// argument groups: `m.values().map(|x| x.v).sum…` → `map`, `values`,
/// `m`. The last one is the head that roots the chain.
fn chain_idents(toks: &[Tok], dot: usize, lo: usize) -> Vec<usize> {
    let mut idents = Vec::new();
    let mut k = dot;
    loop {
        if k == lo {
            break;
        }
        k -= 1;
        let t = &toks[k];
        if t.is_punct(')') || t.is_punct(']') {
            // Skip the balanced group.
            let close = if t.is_punct(')') {
                ('(', ')')
            } else {
                ('[', ']')
            };
            let mut depth = 0i32;
            loop {
                if toks[k].is_punct(close.1) {
                    depth += 1;
                } else if toks[k].is_punct(close.0) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == lo {
                    return idents;
                }
                k -= 1;
            }
            continue;
        }
        if t.kind == TokKind::Ident {
            if matches!(t.ident(), Some("return" | "in" | "let" | "else" | "match")) {
                break;
            }
            idents.push(k);
            continue;
        }
        if t.is_punct('.')
            || t.is_punct(':')
            || t.is_punct('<')
            || t.is_punct('>')
            || t.is_punct('&')
        {
            continue;
        }
        break;
    }
    idents
}
