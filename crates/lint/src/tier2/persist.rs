//! Pass: `atomic-persistence`.
//!
//! Files a later run will trust — the checkpoint journal, the binaries'
//! exported datasets — must land by `create temp → write → fsync →
//! rename`. Anything else lets a crash publish a torn file at the very
//! path a resumed run reads. For each fn body under `PERSIST_PATHS` the
//! pass flags:
//!
//! * an `fs::write`, which replaces the file in place;
//! * a `File::create` with no later `rename` in the same body, which
//!   truncates the destination before the new bytes are safe;
//! * a `rename` that publishes a created file with no `sync_all` /
//!   `sync_data` between the create and the rename. The fsync may be
//!   transitive: a call in between to a fn that (transitively) fsyncs
//!   counts, computed as a call-graph fixpoint.
//!
//! Append-mode writes (the journal's frame appends) are the idiom's
//! other half and are not flagged. A create and its rename are matched
//! within one fn body, the `write_atomic` idiom this workspace
//! standardizes on.

use crate::config::{in_paths, PERSIST_PATHS};
use crate::lexer::Tok;
use crate::report::Finding;
use crate::rules::{finding, path_pred};
use crate::tier2::{sites_in, Tier2};

/// The rule this pass reports under.
const RULE: &str = "atomic-persistence";

/// Run the pass.
pub fn run(t2: &Tier2, out: &mut Vec<Finding>) {
    // Which fns fsync, directly or through a callee (fixpoint).
    let mut syncs = vec![false; t2.sym.fns.len()];
    for (i, def) in t2.sym.fns.iter().enumerate() {
        if let Some((lo, hi)) = def.body {
            let toks = &t2.lexed[def.file].toks;
            let mask = &t2.masks[def.file];
            syncs[i] = (lo..hi).any(|k| !mask[k] && is_sync_call(toks, k));
        }
    }
    loop {
        let mut changed = false;
        for i in 0..t2.sym.fns.len() {
            if syncs[i] {
                continue;
            }
            if t2.graph[i]
                .iter()
                .any(|s| s.resolved.iter().any(|&r| syncs[r]))
            {
                syncs[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    for (fidx, def) in t2.sym.fns.iter().enumerate() {
        let (file, lexed) = (&t2.files[def.file], &t2.lexed[def.file]);
        if !in_paths(&file.rel_path, PERSIST_PATHS) {
            continue;
        }
        let Some((lo, hi)) = def.body else { continue };
        let (toks, mask) = (&lexed.toks, &t2.masks[def.file]);
        let call = |k: usize, name: &str| {
            !mask[k]
                && toks[k].ident() == Some(name)
                && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
        };
        for k in lo..hi {
            if call(k, "write") && path_pred(toks, k, "fs") {
                out.push(finding(
                    RULE,
                    file,
                    lexed,
                    &toks[k],
                    "`fs::write` on a persistence path replaces the file in place — a crash mid-write leaves a torn file; write a temp file and `rename` it (see `checkpoint::write_atomic`)".to_string(),
                ));
            }
            if !(call(k, "create") && path_pred(toks, k, "File")) {
                continue;
            }
            let Some(rk) = (k + 1..hi).find(|&j| call(j, "rename")) else {
                out.push(finding(
                    RULE,
                    file,
                    lexed,
                    &toks[k],
                    "`File::create` on a persistence path with no following `rename` truncates the destination before the new bytes are safe — write a temp file and `rename` it (see `checkpoint::write_atomic`)".to_string(),
                ));
                continue;
            };
            // The span starts after `create`: name-based resolution can
            // bind `File::create` to a workspace `create` that fsyncs.
            let direct = (k + 1..rk).any(|j| !mask[j] && is_sync_call(toks, j));
            let via_call = sites_in(&t2.graph[fidx], (k + 1, rk))
                .any(|s| s.resolved.iter().any(|&r| syncs[r]));
            if !(direct || via_call) {
                out.push(finding(
                    RULE,
                    file,
                    lexed,
                    &toks[rk],
                    format!(
                        "`rename` publishes the file created at line {} with no fsync in between — a crash after the rename can expose contents that never reached disk; call `sync_all()` before renaming (see `checkpoint::write_atomic`)",
                        toks[k].line
                    ),
                ));
            }
        }
    }
}

/// `.sync_all(` / `.sync_data(` at token `k`?
fn is_sync_call(toks: &[Tok], k: usize) -> bool {
    matches!(toks[k].ident(), Some("sync_all" | "sync_data"))
        && k >= 1
        && toks[k - 1].is_punct('.')
        && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
}
