//! PSQL lexer.
//!
//! Identifiers may contain interior hyphens (`us-map`, `covered-by`,
//! `time-zones`), matching the paper's naming; a `-` is part of an
//! identifier when it is directly surrounded by identifier characters.
//! `+-` spells the paper's `±` in window literals. Negative numbers are
//! written with a leading `-` immediately before the digits.

use crate::error::PsqlError;
use crate::token::Token;

/// Tokenizes a PSQL query string.
///
/// The scan walks byte offsets over `input` and slices words and numbers
/// out of it; only a non-ASCII byte decodes a `char`. Offsets in error
/// messages count characters.
pub fn lex(input: &str) -> Result<Vec<Token>, PsqlError> {
    let bytes = input.as_bytes();
    let mut i = 0usize;
    // Sized once: a token with its separator is rarely under four bytes.
    let mut out = Vec::with_capacity(bytes.len() / 4 + 1);
    while i < bytes.len() {
        let c = char_at(input, i);
        let next = bytes.get(i + c.len_utf8()).copied();
        let (token, used) = match c {
            c if c.is_whitespace() => {
                i += c.len_utf8();
                continue;
            }
            ',' => (Token::Comma, 1),
            '.' => (Token::Dot, 1),
            '(' => (Token::LParen, 1),
            ')' => (Token::RParen, 1),
            '{' => (Token::LBrace, 1),
            '}' => (Token::RBrace, 1),
            '*' => (Token::Star, 1),
            '=' => (Token::Eq, 1),
            '±' => (Token::PlusMinus, c.len_utf8()),
            '+' if next == Some(b'-') => (Token::PlusMinus, 2),
            '+' => {
                return Err(PsqlError::Lex(format!(
                    "stray '+' at offset {}",
                    char_offset(input, i)
                )))
            }
            '<' if next == Some(b'=') => (Token::Le, 2),
            '<' if next == Some(b'>') => (Token::Ne, 2),
            '<' => (Token::Lt, 1),
            '>' if next == Some(b'=') => (Token::Ge, 2),
            '>' => (Token::Gt, 1),
            '\'' => {
                let body = &input[i + 1..];
                let len = body
                    .find('\'')
                    .ok_or_else(|| PsqlError::Lex("unterminated string".into()))?;
                (Token::Str(body[..len].to_owned()), len + 2)
            }
            '-' if next.is_some_and(|b| b.is_ascii_digit()) => lex_number(&input[i..])?,
            c if c.is_ascii_digit() => lex_number(&input[i..])?,
            c if c.is_alphabetic() || c == '_' => {
                let word = &input[i..i + word_len(&input[i..])];
                (keyword_or_ident(word), word.len())
            }
            other => {
                return Err(PsqlError::Lex(format!(
                    "unexpected character {other:?} at offset {}",
                    char_offset(input, i)
                )))
            }
        };
        out.push(token);
        i += used;
    }
    Ok(out)
}

/// The character starting at byte offset `i` (a character boundary).
fn char_at(input: &str, i: usize) -> char {
    let byte = input.as_bytes()[i];
    if byte.is_ascii() {
        byte as char
    } else {
        input[i..].chars().next().expect("offset is inside input")
    }
}

/// Byte offset → character offset, for error messages.
fn char_offset(input: &str, i: usize) -> usize {
    input[..i].chars().count()
}

/// Byte length of the identifier or keyword `text` starts with.
fn word_len(text: &str) -> usize {
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    let mut chars = text.char_indices().peekable();
    let mut len = 0;
    while let Some((at, c)) = chars.next() {
        // An interior hyphen (one directly followed by a word
        // character) is part of the identifier.
        let hyphenated = c == '-' && chars.peek().is_some_and(|&(_, n)| is_word(n));
        if !is_word(c) && !hyphenated {
            break;
        }
        len = at + c.len_utf8();
    }
    len
}

/// Lexes the number `text` starts with; returns it with its byte length.
fn lex_number(text: &str) -> Result<(Token, usize), PsqlError> {
    let bytes = text.as_bytes();
    let start = usize::from(bytes[0] == b'-');
    let digits = bytes[start..]
        .iter()
        .take_while(|b| b.is_ascii_digit() || **b == b'.')
        .count();
    if digits == 0 {
        return Err(PsqlError::Lex("expected digits".into()));
    }
    let literal = &text[..start + digits];
    literal
        .parse::<f64>()
        .map(|n| (Token::Number(n), literal.len()))
        .map_err(|e| PsqlError::Lex(format!("bad number {literal:?}: {e}")))
}

/// Longest keyword, in bytes (`overlapping`).
const MAX_KEYWORD: usize = 11;

fn keyword_or_ident(word: &str) -> Token {
    // Keywords are ASCII and match case-insensitively: lower-case the
    // word on the stack and compare bytes.
    let mut lower = [0u8; MAX_KEYWORD];
    let Some(lower) = lower.get_mut(..word.len()) else {
        return Token::Ident(word.to_owned());
    };
    lower.copy_from_slice(word.as_bytes());
    lower.make_ascii_lowercase();
    match &*lower {
        b"select" => Token::Select,
        b"from" => Token::From,
        b"on" => Token::On,
        b"at" => Token::At,
        b"where" => Token::Where,
        b"and" => Token::And,
        b"or" => Token::Or,
        b"not" => Token::Not,
        b"order" => Token::Order,
        b"by" => Token::By,
        b"asc" => Token::Asc,
        b"desc" => Token::Desc,
        b"limit" => Token::Limit,
        b"covering" => Token::Covering,
        b"covered-by" => Token::CoveredBy,
        b"overlapping" => Token::Overlapping,
        b"disjoined" => Token::Disjoined,
        b"nearest" => Token::Nearest,
        _ => Token::Ident(word.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_2_1_query_lexes() {
        let toks = lex("select city,state,population,loc from cities on us-map \
             at loc covered-by {4 +- 4, 11 +- 9} where population > 450000")
        .unwrap();
        assert_eq!(toks[0], Token::Select);
        assert!(toks.contains(&Token::Ident("us-map".into())));
        assert!(toks.contains(&Token::CoveredBy));
        assert!(toks.contains(&Token::PlusMinus));
        assert!(toks.contains(&Token::Number(450000.0)));
    }

    #[test]
    fn hyphenated_identifiers() {
        let toks = lex("time-zones us-map hour-diff").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("time-zones".into()),
                Token::Ident("us-map".into()),
                Token::Ident("hour-diff".into()),
            ]
        );
    }

    #[test]
    fn covered_by_is_keyword_not_ident() {
        assert_eq!(lex("covered-by").unwrap(), vec![Token::CoveredBy]);
        assert_eq!(lex("COVERED-BY").unwrap(), vec![Token::CoveredBy]);
    }

    #[test]
    fn numbers_and_negatives() {
        assert_eq!(
            lex("3.5 -2 10").unwrap(),
            vec![Token::Number(3.5), Token::Number(-2.0), Token::Number(10.0)]
        );
    }

    #[test]
    fn plus_minus_and_unicode_pm() {
        assert_eq!(lex("4 +- 4").unwrap()[1], Token::PlusMinus);
        assert_eq!(lex("4 ± 4").unwrap()[1], Token::PlusMinus);
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            lex("= <> < <= > >=").unwrap(),
            vec![
                Token::Eq,
                Token::Ne,
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge
            ]
        );
    }

    #[test]
    fn string_literals() {
        assert_eq!(
            lex("'New York'").unwrap(),
            vec![Token::Str("New York".into())]
        );
        assert!(lex("'unterminated").is_err());
    }

    #[test]
    fn dotted_references() {
        let toks = lex("cities.loc").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("cities".into()),
                Token::Dot,
                Token::Ident("loc".into()),
            ]
        );
    }

    #[test]
    fn bad_characters_rejected() {
        assert!(lex("select @").is_err());
        assert!(lex("+5").is_err());
    }

    #[test]
    fn trailing_hyphen_not_part_of_ident() {
        // `x -1` lexes as ident then number; `x- 1` is an error case the
        // hyphen rule avoids by not consuming the dangling hyphen.
        let toks = lex("x -1").unwrap();
        assert_eq!(toks, vec![Token::Ident("x".into()), Token::Number(-1.0)]);
    }
}
