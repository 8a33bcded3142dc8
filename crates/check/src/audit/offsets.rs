//! Checked-arithmetic analysis for the storage layer.
//!
//! Two rules over the token stream:
//!
//! * `unchecked-offset-arith` — an identifier whose name marks it as
//!   offset-like (contains `offset`, `cursor`, `cumul`, `byte_len`, or
//!   `file_len`) must not sit *directly adjacent* to `+`, `*`, `+=`, `*=`,
//!   or a bare `as` cast. DOS Eq. 1 (`id_offset + (v - first_id) * d`),
//!   CSR offset math, and extsort run bookkeeping all flow through
//!   `graphz_types::cast`, which returns `GraphError::OffsetOverflow`
//!   instead of wrapping. Adjacency is deliberately token-local: a tainted
//!   name inside a composite operand (`offsets[i + 1]`, where the neighbour
//!   is a bracket) is a documented blind spot, and a `*` on the left only
//!   counts when the token before it ends an operand (so deref `*offsets`
//!   is not multiplication).
//! * `unchecked-cast` — every bare `as <integer-type>` in the storage and
//!   extsort crates. Narrowing must go through `graphz_types::cast` /
//!   `try_into` with a typed error; the one blessed funnel is the
//!   `graphz-types` crate itself, which is deliberately outside this rule's
//!   scope.

use crate::lint::Violation;
use crate::parser::{SourceFile, Token};

use super::AUDIT;

/// Name fragments that mark an identifier as offset-like.
const TAINT: &[&str] = &["offset", "cursor", "cumul", "byte_len", "file_len"];

/// Integer types whose `as` casts can truncate or reinterpret silently.
/// `as f64` (statistics) and `as VertexId`-style aliases are not matched;
/// aliases resolve to these names at the definition site, which is in the
/// out-of-scope `graphz-types` funnel.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

const ADJ_OPS: &[&str] = &["+", "*", "+=", "*="];

fn tainted(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    TAINT.iter().any(|k| lower.contains(k))
}

/// Can this token end an operand? Distinguishes binary `a * b` from a
/// unary deref `*b` by what precedes the star: an identifier, literal, or
/// closing bracket can end an operand; a keyword (`if *x`, `return *x`) or
/// punctuation cannot.
fn ends_operand(t: &Token) -> bool {
    const KEYWORDS: &[&str] = &[
        "if", "else", "match", "return", "while", "in", "let", "mut", "move", "loop", "break",
        "continue", "as", "ref", "box", "yield",
    ];
    (t.is_word() && !KEYWORDS.contains(&t.text.as_str())) || t.text == ")" || t.text == "]"
}

pub(super) fn analyze(files: &[SourceFile], out: &mut Vec<Violation>) {
    for f in files {
        let t = &f.tokens;
        for i in 0..t.len() {
            let tok = &t[i];
            if tok.is_name() && tainted(&tok.text) {
                let next = t.get(i + 1).map(|x| x.text.as_str()).unwrap_or("");
                let prev = if i > 0 { t[i - 1].text.as_str() } else { "" };
                let prev_is_binary =
                    prev != "*" || (i >= 2 && ends_operand(&t[i - 2]));
                let hit = ADJ_OPS.contains(&next)
                    || next == "as"
                    || (ADJ_OPS.contains(&prev) && prev_is_binary);
                if hit {
                    AUDIT.finding(
                        f,
                        "unchecked-offset-arith",
                        tok.line,
                        format!(
                            "unchecked arithmetic on offset-like `{}` — route it through \
                             graphz_types::cast so overflow surfaces as \
                             GraphError::OffsetOverflow instead of wrapping",
                            tok.text
                        ),
                        out,
                    );
                }
            }
            if tok.text == "as" && t.get(i + 1).is_some_and(|x| INT_TYPES.contains(&x.text.as_str()))
            {
                AUDIT.finding(
                    f,
                    "unchecked-cast",
                    t[i + 1].line,
                    format!(
                        "bare `as {}` cast can truncate silently — use the \
                         graphz_types::cast helpers or try_into with a typed error",
                        t[i + 1].text
                    ),
                    out,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::split_suppressed;
    use crate::parser::parse_source;

    fn audit(rel: &str, src: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        analyze(&[parse_source(rel, src)], &mut out);
        split_suppressed(&[(rel.to_string(), src.to_string())], out).0
    }

    #[test]
    fn eq1_shape_is_flagged_on_both_sides() {
        let v = audit(
            "crates/storage/src/a.rs",
            "fn f(id_offset: u64, rank: u64) -> u64 { id_offset + rank }\n\
             fn g(byte_offset: u64) -> u64 { 4 * byte_offset }\n\
             fn h(mut cursor: u64, n: u64) { cursor += n; }",
        );
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "unchecked-offset-arith"));
        assert_eq!(v[1].line, 2, "right-hand operand of binary * is flagged");
    }

    #[test]
    fn deref_and_checked_calls_are_not_arithmetic() {
        let v = audit(
            "crates/storage/src/a.rs",
            "fn f(offsets: &[u64]) -> u64 { *offsets.last().unwrap_or(&0) }\n\
             fn g(offset: u64, n: u64) -> Option<u64> { offset.checked_add(n) }\n\
             fn h(offset: u64, n: u64) -> Result<u64> { cast::add_u64(offset, n, \"x\") }",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn composite_operands_are_a_documented_blind_spot() {
        let v = audit("crates/storage/src/a.rs", "fn f(offsets: &mut [u64], x: u64) { offsets[0] = x; }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn casts_flagged_only_in_storage_and_extsort() {
        let src = "fn f(n: u64) -> u32 { n as u32 }";
        assert_eq!(audit("crates/storage/src/a.rs", src).len(), 1);
        assert_eq!(audit("crates/extsort/src/lib.rs", src).len(), 1);
        assert_eq!(audit("crates/io/src/a.rs", src).len(), 0, "io widenings are exempt");
        assert_eq!(audit("crates/types/src/cast.rs", src).len(), 0, "the blessed funnel");
    }

    #[test]
    fn float_casts_are_not_integer_truncation() {
        assert!(audit("crates/storage/src/a.rs", "fn f(n: u64) -> f64 { n as f64 }").is_empty());
    }

    #[test]
    fn offset_cast_flagged_in_io_too() {
        let v = audit("crates/io/src/a.rs", "fn f(offset: u64) -> usize { offset as usize }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "unchecked-offset-arith");
    }

    #[test]
    fn suppression_marker_silences_one_site() {
        let src = "fn f(offset: u64, n: u64) -> u64 {\n    // audit:allow(unchecked-offset-arith) bounded by the caller\n    offset + n\n}";
        assert!(audit("crates/storage/src/a.rs", src).is_empty());
    }
}
