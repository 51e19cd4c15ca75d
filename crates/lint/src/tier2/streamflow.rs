//! Pass: `rng-stream-labels`.
//!
//! Every RNG substream is named by the label passed to `SimRng::split`,
//! and the label *is* the stream's identity: two sites sharing a label
//! draw correlated values, and a fault schedule drawn from a simulation
//! stream makes enabling faults perturb the fault-free dataset. This
//! pass checks every `recv.split(arg)` call site outside
//! `LABEL_EXEMPT_CRATES`. The label's values come from the literal or
//! `format!` skeleton written at the site, plus whatever value flow
//! resolves: local bindings, `format!` placeholder substitution, fn
//! parameters (back-propagated from every call site) and callee return
//! literals. So `rng.split(op.label())` is judged by the strings
//! `label()` can actually return. Each site is held to:
//!
//! * **Scheme** — `area/rest`, with a lowercase `[a-z0-9_-]+` area. A
//!   literal or skeleton must spell its area out; a value that flow
//!   resolved only partly keeps `{}` for the unknown part, and an
//!   unknown area gets the benefit of the doubt.
//! * **Uniqueness** — literals, skeletons and fully resolved constants
//!   are unique across every site of the run.
//! * **Namespace, both ways** — inside `DISRUPT_PATHS` every label lives
//!   under `campaign/faults/`; outside them none does.
//!
//! Literal and skeleton labels are reported at the string token, labels
//! known only through flow at the `split` token. Sites that resolve to
//! nothing (truly dynamic labels) are skipped.

use std::collections::BTreeMap;

use crate::config::{in_paths, DISRUPT_PATHS, LABEL_EXEMPT_CRATES};
use crate::lexer::{Tok, TokKind};
use crate::report::Finding;
use crate::rules::finding;
use crate::tier2::{locals_in, return_ranges, Tier2};

/// The rule this pass reports under.
const RULE: &str = "rng-stream-labels";

/// The disruption subsystem's reserved label namespace.
const NAMESPACE: &str = "campaign/faults/";

/// Resolution caps: recursion depth and value-set size.
const MAX_DEPTH: usize = 4;
const MAX_VALUES: usize = 12;

/// One value a site's label can take.
struct Label {
    text: String,
    /// Written at the site (a literal or `format!` skeleton) rather than
    /// resolved through flow.
    lexical: bool,
    /// Token a finding about this value is reported at.
    tok: usize,
}

/// Run the pass.
pub fn run(t2: &Tier2, out: &mut Vec<Finding>) {
    let r = Resolver {
        t2,
        callers: build_callers(t2),
    };
    // Every split site with its label values, in (file, token) order so
    // the first use of a label is the earliest in the tree.
    let mut sites: Vec<(usize, usize, Vec<Label>)> = Vec::new();
    for (fidx, def) in t2.sym.fns.iter().enumerate() {
        if LABEL_EXEMPT_CRATES.contains(&t2.files[def.file].crate_name.as_str()) {
            continue;
        }
        let toks = &t2.lexed[def.file].toks;
        for site in &t2.graph[fidx] {
            if !(site.callee == "split" && site.is_method) || t2.masks[def.file][site.name_tok] {
                continue;
            }
            let Some(&arg) = site.args.first() else {
                continue;
            };
            let (lo, hi) = r.trim(def.file, arg);
            let mut labels = Vec::new();
            let lexical = if hi == lo + 1 && toks[lo].kind == TokKind::Str {
                Some(lo)
            } else {
                (lo < hi && is_format(toks, lo)).then_some(lo + 3)
            };
            if let Some(k) = lexical {
                labels.push(Label {
                    text: toks[k].text.clone(),
                    lexical: true,
                    tok: k,
                });
            }
            for text in r.resolve(fidx, arg, 0) {
                if !labels.iter().any(|l| l.text == text) {
                    labels.push(Label {
                        text,
                        lexical: false,
                        tok: site.name_tok,
                    });
                }
            }
            if !labels.is_empty() {
                sites.push((def.file, site.name_tok, labels));
            }
        }
    }
    sites.sort_by_key(|&(file, tok, _)| (file, tok));

    let mut first: BTreeMap<&str, (usize, u32, u32)> = BTreeMap::new();
    for (file, _, labels) in &sites {
        let (src, lexed) = (&t2.files[*file], &t2.lexed[*file]);
        let mut emit = |l: &Label, message: String| {
            out.push(finding(RULE, src, lexed, &lexed.toks[l.tok], message))
        };
        let off: Vec<&Label> = labels.iter().filter(|l| off_scheme(l)).collect();
        if let Some(l) = off.first() {
            let list = off
                .iter()
                .map(|l| format!("\"{}\"", l.text))
                .collect::<Vec<_>>()
                .join(", ");
            let how = if l.lexical {
                ""
            } else {
                " (resolved through value flow)"
            };
            emit(
                l,
                format!(
                    "RNG stream label {list}{how} does not follow the `area/rest` scheme (lowercase area prefix, then `/`)"
                ),
            );
        }
        let in_disrupt = in_paths(&src.rel_path, DISRUPT_PATHS);
        if let Some(l) = labels.iter().find(|l| fenced_wrong(l, in_disrupt)) {
            let message = if in_disrupt {
                format!(
                    "RNG stream label \"{}\" in the disrupt module is outside the `{NAMESPACE}` namespace — fault schedules must never draw from simulation streams",
                    l.text
                )
            } else {
                format!(
                    "RNG stream label \"{}\": the `{NAMESPACE}` namespace is reserved for the disruption subsystem ({}) — fault streams must not leak into simulation code",
                    l.text,
                    DISRUPT_PATHS.join(", ")
                )
            };
            emit(l, message);
        }
        for l in labels.iter().filter(|l| l.lexical || !l.text.contains('{')) {
            let tok = &lexed.toks[l.tok];
            match first.get(l.text.as_str()) {
                Some(&(f, line, col)) => emit(
                    l,
                    format!(
                        "duplicate RNG stream label \"{}\" (first used at {}:{line}:{col}) — reusing a label risks correlated streams",
                        l.text, t2.files[f].rel_path
                    ),
                ),
                None => {
                    first.insert(&l.text, (*file, tok.line, tok.col));
                }
            }
        }
    }
}

/// Is `toks[lo..]` a `format!("skeleton", …)` call?
fn is_format(toks: &[Tok], lo: usize) -> bool {
    toks[lo].ident() == Some("format")
        && toks.get(lo + 1).is_some_and(|t| t.is_punct('!'))
        && toks.get(lo + 2).is_some_and(|t| t.is_punct('('))
        && toks.get(lo + 3).is_some_and(|t| t.kind == TokKind::Str)
}

/// Does the label break the `area/rest` scheme? A `{` in a resolved
/// value marks a part flow could not resolve, which may be fine.
fn off_scheme(l: &Label) -> bool {
    let unknown = |s: &str| !l.lexical && s.contains('{');
    match l.text.split_once('/') {
        None => !unknown(&l.text),
        Some((area, rest)) => {
            !unknown(area)
                && (area.is_empty()
                    || rest.is_empty()
                    || !area.chars().all(|c| {
                        c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-'
                    }))
        }
    }
}

/// Is the label on the wrong side of the `campaign/faults/` fence?
/// Inside the disrupt module, a resolved value whose known prefix could
/// still grow into the namespace gets the benefit of the doubt.
fn fenced_wrong(l: &Label, in_disrupt: bool) -> bool {
    let inside = l.text.starts_with(NAMESPACE);
    if !in_disrupt {
        return inside;
    }
    match l.text.find('{') {
        Some(i) if !l.lexical => !(inside || NAMESPACE.starts_with(&l.text[..i])),
        _ => !inside,
    }
}

/// `callers[callee_fidx]` → every `(caller_fidx, site_index)` resolving
/// to it.
fn build_callers(t2: &Tier2) -> Vec<Vec<(usize, usize)>> {
    let mut callers = vec![Vec::new(); t2.sym.fns.len()];
    for (caller, sites) in t2.graph.iter().enumerate() {
        for (si, site) in sites.iter().enumerate() {
            for &callee in &site.resolved {
                callers[callee].push((caller, si));
            }
        }
    }
    callers
}

struct Resolver<'a> {
    t2: &'a Tier2<'a>,
    callers: Vec<Vec<(usize, usize)>>,
}

impl<'a> Resolver<'a> {
    /// Strip `&`/`mut` prefixes and no-op `.as_str()`/`.to_string()`/
    /// `.clone()` suffixes from an expression range.
    fn trim(&self, file: usize, mut range: (usize, usize)) -> (usize, usize) {
        let toks = &self.t2.lexed[file].toks;
        loop {
            if range.0 < range.1
                && (toks[range.0].is_punct('&') || toks[range.0].ident() == Some("mut"))
            {
                range.0 += 1;
                continue;
            }
            if range.1 - range.0 >= 4
                && toks[range.1 - 1].is_punct(')')
                && toks[range.1 - 2].is_punct('(')
                && matches!(
                    toks[range.1 - 3].ident(),
                    Some("as_str" | "to_string" | "clone" | "as_ref")
                )
                && toks[range.1 - 4].is_punct('.')
            {
                range.1 -= 4;
                continue;
            }
            return range;
        }
    }

    /// The string values an expression range can take. Unresolvable
    /// `format!` arguments keep their `{}` placeholder; a fully
    /// unresolvable expression yields an empty set.
    fn resolve(&self, fidx: usize, range: (usize, usize), depth: usize) -> Vec<String> {
        if depth > MAX_DEPTH {
            return Vec::new();
        }
        let def = &self.t2.sym.fns[fidx];
        let file = def.file;
        let toks = &self.t2.lexed[file].toks;
        let (lo, hi) = self.trim(file, range);
        if lo >= hi {
            return Vec::new();
        }
        // String literal.
        if hi - lo == 1 && toks[lo].kind == TokKind::Str {
            return vec![toks[lo].text.clone()];
        }
        // `format!("skeleton", args…)`.
        if is_format(toks, lo) {
            let skeleton = toks[lo + 3].text.clone();
            let args = split_top(toks, lo + 4, hi - 1);
            let mut values = vec![String::new()];
            let mut rest = skeleton.as_str();
            let mut argi = 0usize;
            while let Some(pos) = rest.find("{}") {
                let prefix = &rest[..pos];
                let sub = args
                    .get(argi)
                    .map(|&a| self.resolve(fidx, a, depth + 1))
                    .unwrap_or_default();
                let subs: Vec<String> = if sub.is_empty() {
                    vec!["{}".to_string()]
                } else {
                    sub
                };
                let mut next = Vec::new();
                for v in &values {
                    for s in &subs {
                        if next.len() < MAX_VALUES {
                            next.push(format!("{v}{prefix}{s}"));
                        }
                    }
                }
                values = next;
                rest = &rest[pos + 2..];
                argi += 1;
            }
            for v in &mut values {
                v.push_str(rest);
            }
            return values;
        }
        // A single identifier: local binding or parameter.
        if hi - lo == 1 && toks[lo].kind == TokKind::Ident {
            let name = &toks[lo].text;
            if let Some(body) = def.body {
                let locals = locals_in(toks, body.0, body.1);
                if let Some(l) = locals.iter().find(|l| &l.name == name) {
                    let mut out = Vec::new();
                    for &r in &l.rhs {
                        for v in self.resolve(fidx, r, depth + 1) {
                            if !out.contains(&v) && out.len() < MAX_VALUES {
                                out.push(v);
                            }
                        }
                    }
                    return out;
                }
            }
            if let Some(p) = def.params.iter().position(|p| p == name) {
                return self.resolve_param(fidx, p, depth + 1);
            }
            return Vec::new();
        }
        // A call whose parens close the range: collect the string
        // literals its callees can return.
        for site in &self.t2.graph[fidx] {
            if site.name_tok < lo || site.name_tok >= hi {
                continue;
            }
            // Accept the site if its matching `)` is the final token of
            // the range (`op.label()`, `pick(op)` — a call *is* the
            // whole expression).
            if !toks[hi - 1].is_punct(')') {
                break;
            }
            let mut depth_p = 0i32;
            let mut matches_end = false;
            for (k, t) in toks.iter().enumerate().take(hi).skip(site.name_tok + 1) {
                if t.is_punct('(') {
                    depth_p += 1;
                } else if t.is_punct(')') {
                    depth_p -= 1;
                    if depth_p == 0 {
                        matches_end = k == hi - 1;
                        break;
                    }
                }
            }
            if !matches_end {
                continue;
            }
            let mut out = Vec::new();
            for &ri in &site.resolved {
                let callee = &self.t2.sym.fns[ri];
                let Some(cbody) = callee.body else { continue };
                let ctoks = &self.t2.lexed[callee.file].toks;
                for (rlo, rhi) in return_ranges(ctoks, cbody.0, cbody.1) {
                    for t in &ctoks[rlo..rhi] {
                        if t.kind == TokKind::Str
                            && !out.contains(&t.text)
                            && out.len() < MAX_VALUES
                        {
                            out.push(t.text.clone());
                        }
                    }
                }
            }
            return out;
        }
        Vec::new()
    }

    /// The values a parameter can take, unioned over every call site
    /// that resolves to this fn.
    fn resolve_param(&self, fidx: usize, p: usize, depth: usize) -> Vec<String> {
        if depth > MAX_DEPTH {
            return Vec::new();
        }
        let def = &self.t2.sym.fns[fidx];
        let mut out = Vec::new();
        for &(caller, si) in &self.callers[fidx] {
            let site = &self.t2.graph[caller][si];
            let offset =
                usize::from(site.is_method && def.params.first().is_some_and(|x| x == "self"));
            let Some(&arg) = p.checked_sub(offset).and_then(|ai| site.args.get(ai)) else {
                continue;
            };
            for v in self.resolve(caller, arg, depth + 1) {
                if !out.contains(&v) && out.len() < MAX_VALUES {
                    out.push(v);
                }
            }
        }
        out
    }
}

/// Split `[lo, hi)` at top-level commas.
fn split_top(toks: &[Tok], lo: usize, hi: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = lo;
    for (k, t) in toks.iter().enumerate().take(hi).skip(lo) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            if start < k {
                out.push((start, k));
            }
            start = k + 1;
        }
    }
    if start < hi {
        out.push((start, hi));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label(text: &str, lexical: bool) -> Label {
        Label {
            text: text.to_string(),
            lexical,
            tok: 0,
        }
    }

    #[test]
    fn label_scheme() {
        for ok in ["geo/speed", "campaign/{}/{}", "probe/rtt/{id}"] {
            assert!(!off_scheme(&label(ok, true)), "{ok}");
        }
        for bad in ["trace", "city{i}", "/x", "area/", "Area/x", "{}/x"] {
            assert!(off_scheme(&label(bad, true)), "{bad}");
        }
        // A resolved value's `{}` is an unknown part, not a violation.
        assert!(!off_scheme(&label("{}/x", false)));
        assert!(!off_scheme(&label("{}", false)));
        assert!(off_scheme(&label("Verizon", false)));
    }

    #[test]
    fn namespace_fence_cuts_both_ways() {
        assert!(fenced_wrong(&label("campaign/faults/vz", true), false));
        assert!(!fenced_wrong(&label("campaign/faults/vz", true), true));
        assert!(fenced_wrong(&label("campaign/ran", true), true));
        assert!(fenced_wrong(&label("campaign/{}", true), true));
        assert!(!fenced_wrong(&label("campaign/{}", false), true));
        assert!(fenced_wrong(&label("probe/{}", false), true));
    }
}
