//! Whole-workspace parser smoke test: every shipped source file must
//! lex with exact byte spans, parse into an item AST with zero
//! diagnostics, and the top-level items must tile the token stream
//! seamlessly — the tier-2 passes silently skip anything the parser
//! drops, so a recovery here is a coverage hole there.

use std::path::Path;

use wheels_lint::lexer::{self, TokKind};
use wheels_lint::tier2::parse;
use wheels_lint::workspace;

#[test]
fn whole_workspace_parses_with_exact_spans() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = workspace::collect_workspace(&root).expect("workspace walk");
    assert!(
        files.len() > 50,
        "workspace walk looks truncated: {} files",
        files.len()
    );
    for f in &files {
        let lexed = lexer::lex(&f.src);

        // Byte spans: in order, non-overlapping, and reconstructing the
        // token text exactly.
        let mut prev_hi = 0usize;
        for t in &lexed.toks {
            assert!(
                t.lo >= prev_hi && t.hi <= f.src.len() && t.lo < t.hi,
                "{}: bad span at {}:{}",
                f.rel_path,
                t.line,
                t.col
            );
            let text = &f.src[t.lo..t.hi];
            match t.kind {
                TokKind::Ident | TokKind::Num => assert_eq!(
                    text, t.text,
                    "{}: span text mismatch at {}:{}",
                    f.rel_path, t.line, t.col
                ),
                TokKind::Str => assert!(
                    ["\"", "r\"", "r#", "b\"", "br"]
                        .iter()
                        .any(|p| text.starts_with(p)),
                    "{}: string span at {}:{} is `{text}`",
                    f.rel_path,
                    t.line,
                    t.col
                ),
                _ => {}
            }
            prev_hi = t.hi;
        }

        // Parse: no diagnostics anywhere in the shipped tree.
        let ast = parse::parse(&lexed.toks);
        assert!(
            ast.diags.is_empty(),
            "{}: parser diagnostics {:?}",
            f.rel_path,
            ast.diags
        );

        // Top-level items tile the token stream.
        let mut pos = 0usize;
        for item in &ast.items {
            assert_eq!(
                item.toks.0, pos,
                "{}: item `{}` leaves a gap at token {pos}",
                f.rel_path, item.name
            );
            assert!(item.toks.1 > item.toks.0, "{}: empty item", f.rel_path);
            pos = item.toks.1;
        }
        assert_eq!(
            pos,
            lexed.toks.len(),
            "{}: items do not cover the tail",
            f.rel_path
        );

        // Item byte spans are valid source slices.
        parse::walk(&ast.items, &mut |item, _parent| {
            let (lo, hi) = item.byte_span(&lexed.toks);
            assert!(
                lo <= hi && hi <= f.src.len(),
                "{}: item `{}` has byte span {lo}..{hi}",
                f.rel_path,
                item.name
            );
        });
    }
}
