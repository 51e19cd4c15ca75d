//! `protocol::parse_request` is the first code to touch client bytes, so
//! it must answer every input with `Ok` or `Err` and never panic:
//! arbitrary strings, JSON-shaped noise, every strict truncation of each
//! documented request line (all `Err`, while the whole line is `Ok`),
//! and single-character substitutions of those lines.

use proptest::prelude::*;
use wheels_serve::protocol::parse_request;

/// The request shapes documented in the `protocol` module.
const DOCUMENTED: [&str; 6] = [
    r#"{"cmd":"status"}"#,
    r#"{"cmd":"quantile","table":"tput","op":"verizon","dir":"dl","driving":true,"q":0.5}"#,
    r#"{"cmd":"cdf","table":"rtt","points":11}"#,
    r#"{"cmd":"table1"}"#,
    r#"{"cmd":"figure","id":"fig3"}"#,
    r#"{"cmd":"shutdown"}"#,
];

/// Characters that change what a JSON parser sees, plus a few that do
/// not belong in a request at all.
const SUBSTITUTES: &str = "{}[]\":,\\ 09-.enx\0\u{7f}é\u{1F4F6}";

/// Space-separated JSON-ish fragments: enough structure to get past the
/// parser's first byte and into field lookup and value conversion.
const FRAGMENTS: &str = r#"{ } [ ] : , " "cmd" "quantile" "cdf" "figure" "table" "tput" "rtt" "op" "verizon" "dir" "dl" "q" "points" "id" "driving" true null 0.5 -1 1e309 -0 11 18446744073709551616 "\u0000" \"#;

#[test]
fn every_strict_truncation_is_an_error() {
    for line in DOCUMENTED {
        assert!(parse_request(line).is_ok(), "{line}");
        for cut in 0..line.len() {
            let head = &line[..cut];
            assert!(parse_request(head).is_err(), "accepted {head:?}");
        }
    }
}

#[test]
fn single_character_substitutions_never_panic() {
    for line in DOCUMENTED {
        for (i, old) in line.char_indices() {
            for c in SUBSTITUTES.chars() {
                let mut s = String::with_capacity(line.len() + 4);
                s.push_str(&line[..i]);
                s.push(c);
                s.push_str(&line[i + old.len_utf8()..]);
                let _ = parse_request(&s);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_strings_never_panic(codes in prop::collection::vec(any::<u32>(), 0..96)) {
        let s: String = codes
            .iter()
            .map(|&c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'))
            .collect();
        let _ = parse_request(&s);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..160)) {
        let _ = parse_request(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn json_shaped_noise_never_panics(
        parts in prop::collection::vec(prop::sample::select(FRAGMENTS.split(' ').collect::<Vec<_>>()), 0..24)
    ) {
        let _ = parse_request(&parts.concat());
    }

    #[test]
    fn arbitrary_substitutions_never_panic(
        which in 0usize..DOCUMENTED.len(),
        at in 0usize..96,
        code in any::<u32>(),
    ) {
        let line = DOCUMENTED[which];
        let i = at % line.len();
        let c = char::from_u32(code % 0x11_0000).unwrap_or('\u{fffd}');
        let s = format!("{}{c}{}", &line[..i], &line[i + 1..]);
        let _ = parse_request(&s);
    }
}
