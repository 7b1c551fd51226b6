//! JSON string and number formatting for the workspace's hand-written
//! emitters (trace exports, metrics, sanitizer and advisor reports, serve
//! and degradation reports). The workspace has no serde; this is the one
//! place the escaping rules live.

use std::fmt::Write as _;

/// Escapes `s` for the inside of a JSON string literal: quote, backslash,
/// `\n`, `\r` and `\t` get their short escapes, every other control
/// character becomes `\u00XX`, and everything else passes through.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `s` as a complete JSON string literal, quotes included.
pub fn quote(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Deterministic JSON number formatting. Finite floats use Rust's
/// shortest round-trip `Display`; non-finite values (invalid JSON)
/// degrade to 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials_and_passes_the_rest() {
        assert_eq!(
            quote("a\"b\\c\nd\re\tf\u{1}gé→"),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001gé→\""
        );
        assert_eq!(escape("plain"), "plain");
        assert_eq!(number(0.25), "0.25");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
    }
}
