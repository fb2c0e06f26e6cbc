//! The one SQL tokenizer, shared by plain SQL and the ESTIMATE dialect.
//!
//! Every token carries its byte [`Span`], always on char boundaries.
//! Identifiers and numbers keep their source text through that span, so
//! the parser can re-read a number losslessly (a `seed` is a full u64)
//! or pick `Int`/`Float` for a SQL literal. `-` and `+` are always
//! symbols: unary minus is the parser's, and so is the dialect's signed
//! number rule.

use mlss_core::spec::{Span, SpecError, SpecErrorKind};

/// A lexical token: its kind and where it sits in the statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Its byte range in the input.
    pub span: Span,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Keyword or bare identifier (the span's text, original case).
    Ident,
    /// Unsigned numeric literal — digits, `.`, exponent (the span's
    /// text, already checked to parse as an `f64`).
    Number,
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// Punctuation / operator.
    Symbol(Sym),
}

/// Punctuation and operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sym {
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `;`
    Semi,
}

pub(super) fn syntax(message: String, span: Span) -> SpecError {
    SpecError::at(SpecErrorKind::Syntax { message }, span)
}

/// Tokenize a statement. Whitespace and `--` line comments are skipped.
pub fn lex(input: &str) -> Result<Vec<Token>, SpecError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let next = bytes.get(i + 1).copied();
        let kind = match bytes[i] {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
                continue;
            }
            b'-' if next == Some(b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            b'\'' => {
                // String literal with '' escaping. Quotes are ASCII, so
                // every slice between them sits on char boundaries and
                // multi-byte text is copied through unchanged.
                let mut s = String::new();
                i += 1;
                loop {
                    let Some(off) = input[i..].find('\'') else {
                        let span = Span::new(start, input.len());
                        return Err(syntax("unterminated string literal".into(), span));
                    };
                    s.push_str(&input[i..i + off]);
                    i += off + 1;
                    if bytes.get(i) != Some(&b'\'') {
                        break;
                    }
                    s.push('\'');
                    i += 1;
                }
                TokenKind::Str(s)
            }
            b'0'..=b'9' | b'.' => {
                let mut saw_dot = false;
                let mut saw_exp = false;
                while i < bytes.len() {
                    match bytes[i] {
                        b'0'..=b'9' => i += 1,
                        b'.' if !saw_dot && !saw_exp => {
                            saw_dot = true;
                            i += 1;
                        }
                        b'e' | b'E' if !saw_exp => {
                            saw_exp = true;
                            i += 1;
                            if matches!(bytes.get(i), Some(b'+' | b'-')) {
                                i += 1;
                            }
                        }
                        _ => break,
                    }
                }
                let text = &input[start..i];
                if text.parse::<f64>().is_err() {
                    return Err(syntax(format!("bad number '{text}'"), Span::new(start, i)));
                }
                TokenKind::Number
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                TokenKind::Ident
            }
            c => {
                let sym = match (c, next) {
                    (b'!', Some(b'=')) | (b'<', Some(b'>')) => Sym::Ne,
                    (b'<', Some(b'=')) => Sym::Le,
                    (b'>', Some(b'=')) => Sym::Ge,
                    (b'<', _) => Sym::Lt,
                    (b'>', _) => Sym::Gt,
                    (b'=', _) => Sym::Eq,
                    (b'(', _) => Sym::LParen,
                    (b')', _) => Sym::RParen,
                    (b',', _) => Sym::Comma,
                    (b'*', _) => Sym::Star,
                    (b'+', _) => Sym::Plus,
                    (b'-', _) => Sym::Minus,
                    (b'/', _) => Sym::Slash,
                    (b'%', _) => Sym::Percent,
                    (b';', _) => Sym::Semi,
                    _ => {
                        // Decode the real (possibly multi-byte) character
                        // so the message shows it faithfully and the span
                        // stays on a char boundary.
                        let other = input[i..].chars().next().expect("in-bounds byte");
                        let span = Span::new(i, i + other.len_utf8());
                        return Err(syntax(format!("unexpected character '{other}'"), span));
                    }
                };
                i += 1 + usize::from(matches!(sym, Sym::Ne | Sym::Le | Sym::Ge));
                TokenKind::Symbol(sym)
            }
        };
        out.push(Token {
            kind,
            span: Span::new(start, i),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        lex(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    fn texts(sql: &str) -> Vec<&str> {
        lex(sql)
            .unwrap()
            .into_iter()
            .map(|t| &sql[t.span.start..t.span.end])
            .collect()
    }

    #[test]
    fn tokenizes_select() {
        let sql = "SELECT a, b FROM t WHERE x >= 1.5;";
        let toks = kinds(sql);
        assert_eq!(toks[0], TokenKind::Ident);
        assert!(toks.contains(&TokenKind::Symbol(Sym::Ge)));
        assert_eq!(texts(sql)[9], "1.5");
        assert_eq!(*toks.last().unwrap(), TokenKind::Symbol(Sym::Semi));
    }

    #[test]
    fn string_escaping() {
        assert_eq!(kinds("'it''s'"), vec![TokenKind::Str("it's".into())]);
    }

    #[test]
    fn strings_and_messages_decode_utf8() {
        let toks = lex("'café' '日本'").unwrap();
        assert_eq!(toks[0].kind, TokenKind::Str("café".into()));
        assert_eq!(toks[1].kind, TokenKind::Str("日本".into()));
        let sql = "SELECT é";
        let err = lex(sql).unwrap_err();
        let span = err.span.unwrap();
        assert_eq!(&sql[span.start..span.end], "é");
        assert!(err.to_string().contains("unexpected character 'é'"));
    }

    #[test]
    fn comparison_operators() {
        use Sym::*;
        let expected = [Lt, Le, Gt, Ge, Eq, Ne, Ne].map(TokenKind::Symbol);
        assert_eq!(kinds("< <= > >= = <> !="), expected);
    }

    #[test]
    fn numbers_keep_their_text_and_signs_are_symbols() {
        let sql = "42 -7 3.25 1e-4 +2 5%";
        assert_eq!(
            texts(sql),
            vec!["42", "-", "7", "3.25", "1e-4", "+", "2", "5", "%"]
        );
        let toks = kinds(sql);
        assert_eq!(toks[1], TokenKind::Symbol(Sym::Minus));
        assert_eq!(toks[5], TokenKind::Symbol(Sym::Plus));
        assert_eq!(toks[8], TokenKind::Symbol(Sym::Percent));
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(texts("SELECT -- hidden\n1"), vec!["SELECT", "1"]);
    }

    #[test]
    fn errors_carry_position() {
        let err = lex("SELECT @").unwrap_err();
        assert_eq!(err.span, Some(Span::new(7, 8)));
        let err = lex("'oops").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
        assert_eq!(err.span, Some(Span::new(0, 5)));
        let err = lex("1e").unwrap_err();
        assert!(err.to_string().contains("bad number '1e'"));
    }
}
