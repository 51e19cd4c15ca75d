//! Pass: `determinism-taint`.
//!
//! Tracks nondeterministic values — wall-clock observations
//! (`Instant::now`, `SystemTime::now`, `.elapsed()`), OS entropy
//! (`thread_rng`, `from_entropy`, `rand::random`), host-core counts
//! (`available_parallelism`, `num_cpus`), pointer-to-int casts, and
//! hash-container iteration order — through local bindings and across
//! calls into the *reproducibility sinks*: fns defined on the
//! `TAINT_SINK_PATHS` (record constructors, checkpoint/WCD1 frame
//! encoders), the named `TAINT_SINK_FNS` (report printers), and struct
//! literals of record types defined on those paths. Any tainted
//! source→sink path is a finding, with the full call chain in the
//! message.
//!
//! Precision choices (kept deliberately, so the shipped tree expresses
//! its real invariants instead of accumulating allows):
//!
//! * Loop induction variables are *not* tainted by numeric bounds — a
//!   worker count sizing `for _ in 0..threads` changes scheduling, not
//!   merged values (the campaign engine's slots-in-plan-order merge is
//!   exactly this pattern). `for` variables *are* tainted when the
//!   iterated expression is hash-container iteration, where the order
//!   itself is the nondeterminism.
//! * `eprintln!`/stderr is not a sink: progress logging may tell the
//!   operator how long a run took; reports and datasets may not.
//!
//! The analysis is a per-fn summary fixpoint: each fn gets
//! `{returns-tainted, param→return, param→sink}` bits with provenance
//! chains, recomputed until stable, so taint crosses any number of
//! intermediate calls in either direction.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::config::{in_paths, TAINT_SINK_FNS, TAINT_SINK_PATHS};
use crate::lexer::{Tok, TokKind};
use crate::report::Finding;
use crate::tier2::symbols::CallSite;
use crate::tier2::{is_value_use, locals_in, mentions_hash, return_ranges, sites_in, Local, Tier2};

/// Integer types a pointer cast to which counts as address observation.
const INT_TYPES: [&str; 6] = ["usize", "u64", "u32", "isize", "i64", "u128"];

/// Iteration methods whose order a hash container does not define.
const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];

/// Per-fn dataflow summary.
#[derive(Clone, Default)]
struct Summary {
    /// The fn returns an intrinsically tainted value (chain text).
    ret_source: Option<String>,
    /// `param_to_ret[i]`: a tainted argument in position `i` taints the
    /// return value.
    param_to_ret: Vec<bool>,
    /// `param_to_sink[i]`: a tainted argument in position `i` reaches a
    /// sink inside (chain text describing the rest of the path).
    param_to_sink: Vec<Option<String>>,
}

impl Summary {
    fn shape(&self) -> (bool, Vec<bool>, Vec<bool>) {
        (
            self.ret_source.is_some(),
            self.param_to_ret.clone(),
            self.param_to_sink.iter().map(Option::is_some).collect(),
        )
    }
}

/// A source→sink hit found inside one fn.
struct Candidate {
    file: usize,
    line: u32,
    col: u32,
    chain: String,
}

/// Run the pass.
pub fn run(t2: &Tier2, out: &mut Vec<Finding>) {
    // Which fns are sinks, and which struct names are record types.
    let is_sink: Vec<bool> = t2
        .sym
        .fns
        .iter()
        .map(|f| {
            in_paths(&t2.files[f.file].rel_path, TAINT_SINK_PATHS)
                || TAINT_SINK_FNS.contains(&f.name.as_str())
        })
        .collect();
    let record_structs: BTreeSet<&str> = t2
        .sym
        .structs
        .iter()
        .filter(|s| in_paths(&t2.files[s.file].rel_path, TAINT_SINK_PATHS))
        .map(|s| s.name.as_str())
        .collect();

    let mut summaries: Vec<Summary> = t2
        .sym
        .fns
        .iter()
        .map(|f| Summary {
            ret_source: None,
            param_to_ret: vec![false; f.params.len()],
            param_to_sink: vec![None; f.params.len()],
        })
        .collect();

    let mut candidates: Vec<Candidate> = Vec::new();
    for _round in 0..6 {
        let mut changed = false;
        candidates.clear();
        for fidx in 0..t2.sym.fns.len() {
            let (s, mut cands) = analyze_fn(t2, fidx, &summaries, &is_sink, &record_structs);
            if s.shape() != summaries[fidx].shape() {
                changed = true;
            }
            summaries[fidx] = s;
            candidates.append(&mut cands);
        }
        if !changed {
            break;
        }
    }

    // Emit, deduplicated by site, skipping exempt crates.
    let mut seen = BTreeSet::new();
    candidates.sort_by_key(|c| (c.file, c.line, c.col));
    for c in candidates {
        if t2.exempt(c.file) || !seen.insert((c.file, c.line, c.col)) {
            continue;
        }
        let file = &t2.files[c.file];
        let lexed = &t2.lexed[c.file];
        out.push(Finding {
            rule: "determinism-taint",
            file: file.rel_path.clone(),
            line: c.line,
            col: c.col,
            message: format!(
                "nondeterministic value reaches a reproducibility sink: {}",
                c.chain
            ),
            snippet: lexed
                .lines
                .get(c.line as usize - 1)
                .cloned()
                .unwrap_or_default(),
        });
    }
}

/// Analyze one fn body against the current summaries.
fn analyze_fn(
    t2: &Tier2,
    fidx: usize,
    summaries: &[Summary],
    is_sink: &[bool],
    record_structs: &BTreeSet<&str>,
) -> (Summary, Vec<Candidate>) {
    let def = &t2.sym.fns[fidx];
    let mut summary = Summary {
        ret_source: None,
        param_to_ret: vec![false; def.params.len()],
        param_to_sink: vec![None; def.params.len()],
    };
    let Some(body) = def.body else {
        return (summary, Vec::new());
    };
    let b = BodyCtx {
        t2,
        fidx,
        toks: &t2.lexed[def.file].toks,
        mask: &t2.masks[def.file],
        rel_path: &t2.files[def.file].rel_path,
        locals: locals_in(&t2.lexed[def.file].toks, body.0, body.1),
        summaries,
        is_sink,
        record_structs,
    };

    // Main run: intrinsic sources on, no params tainted.
    let env = b.solve_locals(BTreeMap::new(), true);
    summary.ret_source = return_ranges(b.toks, body.0, body.1)
        .into_iter()
        .find_map(|r| b.eval(r, &env, true, 0));
    let mut cands = Vec::new();
    for (line, col, chain) in b.sink_hits(body, &env, true) {
        cands.push(Candidate {
            file: def.file,
            line,
            col,
            chain,
        });
    }

    // Per-parameter runs: sources off, one param tainted at a time.
    for (p, pname) in def.params.iter().enumerate() {
        if pname == "self" || pname == "_" {
            continue;
        }
        let mut env0 = BTreeMap::new();
        env0.insert(pname.clone(), format!("parameter `{pname}`"));
        let env = b.solve_locals(env0, false);
        summary.param_to_ret[p] = return_ranges(b.toks, body.0, body.1)
            .into_iter()
            .any(|r| b.eval(r, &env, false, 0).is_some());
        summary.param_to_sink[p] =
            b.sink_hits(body, &env, false)
                .into_iter()
                .next()
                .map(|(line, _, chain)| {
                    let name = qual_name(t2, fidx);
                    format!("{chain} (inside {name}, {}:{line})", b.rel_path)
                });
    }
    (summary, cands)
}

/// The `Owner::name` display form of a fn.
fn qual_name(t2: &Tier2, fidx: usize) -> String {
    let f = &t2.sym.fns[fidx];
    match &f.owner {
        Some(o) => format!("{o}::{}", f.name),
        None => f.name.clone(),
    }
}

struct BodyCtx<'a> {
    t2: &'a Tier2<'a>,
    fidx: usize,
    toks: &'a [Tok],
    mask: &'a [bool],
    rel_path: &'a str,
    locals: Vec<Local>,
    summaries: &'a [Summary],
    is_sink: &'a [bool],
    record_structs: &'a BTreeSet<&'a str>,
}

impl<'a> BodyCtx<'a> {
    /// Iterate local-binding taint to a (small) fixpoint.
    fn solve_locals(
        &self,
        mut env: BTreeMap<String, String>,
        with_sources: bool,
    ) -> BTreeMap<String, String> {
        for _ in 0..3 {
            let mut changed = false;
            for l in &self.locals {
                if env.contains_key(&l.name) && !l.for_loop {
                    // Already tainted (params stay tainted; locals are
                    // monotone).
                    continue;
                }
                let taint = if l.for_loop {
                    // Loop vars taint only through iteration-order
                    // sources, never numeric bounds.
                    with_sources
                        .then(|| l.rhs.iter().find_map(|&r| self.hash_iter_taint(r, &env)))
                        .flatten()
                } else {
                    l.rhs
                        .iter()
                        .find_map(|&r| self.eval(r, &env, with_sources, 0))
                };
                if let Some(chain) = taint {
                    if env.insert(l.name.clone(), chain).is_none() {
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        env
    }

    /// Is this range hash-container iteration (order taint)?
    fn hash_iter_taint(
        &self,
        range: (usize, usize),
        env: &BTreeMap<String, String>,
    ) -> Option<String> {
        for k in range.0..range.1 {
            if self.mask[k] {
                continue;
            }
            if let Some(id) = self.toks[k].ident() {
                if self.is_hash_local(id) {
                    return Some(format!(
                        "iteration order of hash container `{id}` ({}:{})",
                        self.rel_path, self.toks[k].line
                    ));
                }
            }
        }
        // A call returning a hash container that is then iterated.
        for site in sites_in(&self.t2.graph[self.fidx], range) {
            for &ri in &site.resolved {
                let ret = &self.t2.sym.fns[ri].ret;
                if ret.contains("HashMap") || ret.contains("HashSet") {
                    return Some(format!(
                        "iteration order of hash container returned by {} ({}:{})",
                        site.callee, self.rel_path, self.toks[site.name_tok].line
                    ));
                }
            }
        }
        let _ = env;
        None
    }

    /// Is `name` a local with a hash-container type or initializer?
    fn is_hash_local(&self, name: &str) -> bool {
        self.locals.iter().any(|l| {
            l.name == name
                && (l.ty.is_some_and(|r| mentions_hash(self.toks, r))
                    || l.rhs.iter().any(|&r| mentions_hash(self.toks, r)))
        })
    }

    /// Evaluate the taint of an expression token range. Returns the
    /// provenance chain of the first taint found.
    fn eval(
        &self,
        range: (usize, usize),
        env: &BTreeMap<String, String>,
        with_sources: bool,
        depth: usize,
    ) -> Option<String> {
        if depth > 6 {
            return None;
        }
        if with_sources {
            if let Some(chain) = self.direct_source(range) {
                return Some(chain);
            }
        }
        // Tainted locals / params used as values.
        for k in range.0..range.1 {
            if self.mask[k] || self.toks[k].kind != TokKind::Ident {
                continue;
            }
            if let Some(chain) = env.get(&self.toks[k].text) {
                if is_value_use(self.toks, k) {
                    return Some(chain.clone());
                }
            }
        }
        // Calls returning taint (intrinsically, or from a tainted arg).
        for site in sites_in(&self.t2.graph[self.fidx], range) {
            if self.mask[site.name_tok] {
                continue;
            }
            let line = self.toks[site.name_tok].line;
            for &ri in &site.resolved {
                let callee = &self.t2.sym.fns[ri];
                if let Some(src) = &self.summaries[ri].ret_source {
                    if with_sources {
                        return Some(format!(
                            "{src} -> returned by {} (called at {}:{line})",
                            qual_name(self.t2, ri),
                            self.rel_path
                        ));
                    }
                }
                for (ai, &arg) in site.args.iter().enumerate() {
                    let pi = ai + arg_offset(site, &callee.params);
                    if !self.summaries[ri]
                        .param_to_ret
                        .get(pi)
                        .copied()
                        .unwrap_or(false)
                    {
                        continue;
                    }
                    if let Some(chain) = self.eval(arg, env, with_sources, depth + 1) {
                        return Some(format!(
                            "{chain} -> through {} (called at {}:{line})",
                            qual_name(self.t2, ri),
                            self.rel_path
                        ));
                    }
                }
            }
        }
        None
    }

    /// Token patterns that *produce* a nondeterministic value.
    fn direct_source(&self, range: (usize, usize)) -> Option<String> {
        let t = self.toks;
        let mut saw_as_ptr = false;
        for k in range.0..range.1 {
            if self.mask[k] {
                continue;
            }
            let at = |txt: &str| t[k].ident() == Some(txt);
            let pred = || {
                (k >= 3 && t[k - 1].is_punct(':') && t[k - 2].is_punct(':'))
                    .then(|| t[k - 3].ident())
                    .flatten()
            };
            let called = t.get(k + 1).is_some_and(|x| x.is_punct('('));
            let src = |what: &str| Some(format!("{what} ({}:{})", self.rel_path, t[k].line));
            if at("now") && called && matches!(pred(), Some("Instant" | "SystemTime")) {
                return src(&format!(
                    "`{}::now()`",
                    pred().expect("pattern matched above")
                ));
            }
            if at("elapsed") && called && k >= 1 && t[k - 1].is_punct('.') {
                return src("`.elapsed()` wall-clock observation");
            }
            if at("available_parallelism") {
                return src("`std::thread::available_parallelism()` host-core read");
            }
            if at("num_cpus") {
                return src("`num_cpus` host-core read");
            }
            if (at("thread_rng") || at("from_entropy")) && called {
                return src(&format!("`{}()` OS entropy", t[k].text));
            }
            if at("random") && called && pred() == Some("rand") {
                return src("`rand::random()` OS entropy");
            }
            if (at("as_ptr") || at("as_mut_ptr")) && called {
                saw_as_ptr = true;
            }
            if saw_as_ptr
                && at("as")
                && t.get(k + 1)
                    .and_then(|x| x.ident())
                    .is_some_and(|id| INT_TYPES.contains(&id))
            {
                return src("pointer-to-int cast (address observation)");
            }
            // Iterating a hash-typed local.
            if t[k].kind == TokKind::Ident
                && self.is_hash_local(&t[k].text)
                && t.get(k + 1).is_some_and(|x| x.is_punct('.'))
                && t.get(k + 2)
                    .and_then(|x| x.ident())
                    .is_some_and(|m| ITER_METHODS.contains(&m))
                && t.get(k + 3).is_some_and(|x| x.is_punct('('))
            {
                return src(&format!(
                    "iteration order of hash container `{}`",
                    t[k].text
                ));
            }
        }
        None
    }

    /// Every place a tainted value meets a sink inside `body`:
    /// `(line, col, chain)` triples.
    fn sink_hits(
        &self,
        body: (usize, usize),
        env: &BTreeMap<String, String>,
        with_sources: bool,
    ) -> Vec<(u32, u32, String)> {
        let mut out = Vec::new();
        // Calls whose (transitively) sinking parameter gets a tainted arg.
        for site in sites_in(&self.t2.graph[self.fidx], body) {
            if self.mask[site.name_tok] {
                continue;
            }
            let tok = &self.toks[site.name_tok];
            for &ri in &site.resolved {
                let callee = &self.t2.sym.fns[ri];
                for (ai, &arg) in site.args.iter().enumerate() {
                    let Some(chain) = self.eval(arg, env, with_sources, 0) else {
                        continue;
                    };
                    if self.is_sink[ri] {
                        out.push((
                            tok.line,
                            tok.col,
                            format!(
                                "{chain} -> passed to sink {} (defined at {}:{})",
                                qual_name(self.t2, ri),
                                self.t2.files[callee.file].rel_path,
                                callee.line
                            ),
                        ));
                        continue;
                    }
                    let pi = ai + arg_offset(site, &callee.params);
                    if let Some(rest) = self.summaries[ri]
                        .param_to_sink
                        .get(pi)
                        .and_then(|o| o.as_ref())
                    {
                        out.push((
                            tok.line,
                            tok.col,
                            format!("{chain} -> into {} -> {rest}", qual_name(self.t2, ri)),
                        ));
                    }
                }
            }
        }
        // Record-struct literals with tainted field values.
        let mut k = body.0;
        while k + 1 < body.1 {
            if !self.mask[k]
                && self.toks[k].kind == TokKind::Ident
                && self.record_structs.contains(self.toks[k].text.as_str())
                && self.toks[k + 1].is_punct('{')
                && !(k >= 1
                    && matches!(self.toks[k - 1].ident(), Some("struct" | "enum" | "union")))
            {
                let mut depth = 0i32;
                let mut j = k + 1;
                while j < body.1 {
                    if self.toks[j].is_punct('{') {
                        depth += 1;
                    } else if self.toks[j].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                if let Some(chain) = self.eval((k + 2, j), env, with_sources, 0) {
                    out.push((
                        self.toks[k].line,
                        self.toks[k].col,
                        format!(
                            "{chain} -> stored in record `{}` literal",
                            self.toks[k].text
                        ),
                    ));
                }
                k = j;
                continue;
            }
            k += 1;
        }
        out
    }
}

/// Argument-position → parameter-position offset: method-call syntax
/// skips the `self` receiver.
fn arg_offset(site: &CallSite, params: &[String]) -> usize {
    usize::from(site.is_method && params.first().is_some_and(|p| p == "self"))
}
