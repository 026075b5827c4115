//! A minimal, self-contained Rust lexer.
//!
//! The build environment is offline (no `syn`/`proc-macro2`), so the
//! lint pass tokenizes source text itself. The lexer understands
//! exactly as much Rust as the rules need to avoid false positives:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments;
//! * string literals with escapes, byte strings, and raw strings with
//!   any number of `#` guards (all may span lines);
//! * char literals vs. lifetimes (`'a'` vs. `'a`), including escaped
//!   and unicode chars;
//! * identifiers, numeric literals, and single-char punctuation.
//!
//! Comments are kept as tokens (the suppression syntax lives in them);
//! rules iterate [`code`](crate::source::SourceFile::code)-filtered
//! streams.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// Char or byte literal (`'x'`, `b'\n'`).
    CharLit,
    /// String, byte-string, or raw-string literal.
    StrLit,
    /// Numeric literal.
    Num,
    /// A single punctuation character.
    Punct,
    /// `// …` comment (doc comments included).
    LineComment,
    /// `/* … */` comment, possibly nested and multi-line.
    BlockComment,
}

/// One lexed token with its 1-based starting line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: TokKind,
    /// Raw source text of the token (quotes and sigils included).
    pub text: String,
    /// 1-based line on which the token starts.
    pub line: u32,
}

impl Token {
    /// True for comment tokens.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }

    /// True if this is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// True if this is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// Lexes `src` into tokens (comments included). Never fails: malformed
/// trailing constructs degrade to shorter tokens, which is adequate
/// for linting (rustc rejects genuinely malformed files first).
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer {
    fn at(&self, offset: usize) -> Option<char> {
        self.chars.get(self.pos + offset).copied()
    }

    /// Advances one char, tracking newlines.
    fn bump(&mut self) {
        if self.at(0) == Some('\n') {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn text_from(&self, start: usize) -> String {
        self.chars[start..self.pos].iter().collect()
    }

    fn push(&mut self, kind: TokKind, start: usize, line: u32) {
        let text = self.text_from(start);
        self.out.push(Token { kind, text, line });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.at(0) {
            if c.is_whitespace() {
                self.bump();
            } else if c == '/' && self.at(1) == Some('/') {
                self.line_comment();
            } else if c == '/' && self.at(1) == Some('*') {
                self.block_comment();
            } else if c == '"' {
                self.string();
            } else if c == '\'' {
                self.char_or_lifetime();
            } else if let Some((prefix_len, hashes)) = self.raw_or_byte_string_prefix() {
                self.prefixed_string(prefix_len, hashes);
            } else if c.is_ascii_digit() {
                self.number();
            } else if c.is_alphabetic() || c == '_' {
                self.ident();
            } else {
                let (start, line) = (self.pos, self.line);
                self.bump();
                self.push(TokKind::Punct, start, line);
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let (start, line) = (self.pos, self.line);
        while self.at(0).is_some_and(|c| c != '\n') {
            self.bump();
        }
        self.push(TokKind::LineComment, start, line);
    }

    fn block_comment(&mut self) {
        let (start, line) = (self.pos, self.line);
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1usize;
        while depth > 0 && self.at(0).is_some() {
            if self.at(0) == Some('/') && self.at(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
            } else if self.at(0) == Some('*') && self.at(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
            } else {
                self.bump();
            }
        }
        self.push(TokKind::BlockComment, start, line);
    }

    /// A `"…"` string with `\`-escapes, possibly spanning lines.
    fn string(&mut self) {
        let (start, line) = (self.pos, self.line);
        self.bump(); // opening quote
        while let Some(c) = self.at(0) {
            if c == '\\' {
                self.bump();
                self.bump();
            } else if c == '"' {
                self.bump();
                break;
            } else {
                self.bump();
            }
        }
        self.push(TokKind::StrLit, start, line);
    }

    /// Detects `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `rb"…"`, `b'…'`
    /// prefixes at the current position. Returns `(prefix chars,
    /// hash count)` without consuming. Plain identifiers starting with
    /// `r`/`b` (e.g. `broadcast`) do not match: the char right after
    /// the prefix must be `"`, `#`, or (for `b` alone) `'`.
    fn raw_or_byte_string_prefix(&self) -> Option<(usize, usize)> {
        let c0 = self.at(0)?;
        if c0 != 'r' && c0 != 'b' {
            return None;
        }
        let mut prefix = 1usize;
        if let Some(c1) = self.at(1) {
            if (c0 == 'b' && c1 == 'r') || (c0 == 'r' && c1 == 'b') {
                prefix = 2;
            }
        }
        // Byte char literal b'x': handled as a prefixed "string" with
        // quote '\'' only for the bare-b prefix.
        if prefix == 1 && c0 == 'b' && self.at(1) == Some('\'') {
            return Some((1, usize::MAX)); // sentinel: byte char literal
        }
        let mut hashes = 0usize;
        while self.at(prefix + hashes) == Some('#') {
            hashes += 1;
        }
        if self.at(prefix + hashes) == Some('"') {
            // A bare `b"…"` (no r) has no hash guard and no rawness,
            // but lexes the same way with zero hashes and escapes; a
            // raw form (contains 'r') disables escapes.
            Some((prefix, hashes))
        } else {
            None
        }
    }

    fn prefixed_string(&mut self, prefix_len: usize, hashes: usize) {
        let (start, line) = (self.pos, self.line);
        if hashes == usize::MAX {
            // b'x' byte char literal.
            self.bump(); // b
            self.bump(); // '
            if self.at(0) == Some('\\') {
                self.bump();
            }
            while self.at(0).is_some_and(|c| c != '\'') {
                self.bump();
            }
            self.bump(); // closing '
            self.push(TokKind::CharLit, start, line);
            return;
        }
        let raw = self.chars[self.pos..self.pos + prefix_len].contains(&'r');
        for _ in 0..prefix_len + hashes {
            self.bump();
        }
        self.bump(); // opening quote
        'outer: while let Some(c) = self.at(0) {
            if !raw && c == '\\' {
                self.bump();
                self.bump();
                continue;
            }
            if c == '"' {
                for h in 0..hashes {
                    if self.at(1 + h) != Some('#') {
                        self.bump();
                        continue 'outer;
                    }
                }
                for _ in 0..=hashes {
                    self.bump();
                }
                break;
            }
            self.bump();
        }
        self.push(TokKind::StrLit, start, line);
    }

    /// Disambiguates `'a'`/`'\n'`/`'λ'` (char literals) from `'a`
    /// (lifetimes): a backslash next means char; otherwise it is a
    /// char literal iff the char after the payload is a closing quote.
    fn char_or_lifetime(&mut self) {
        let (start, line) = (self.pos, self.line);
        if self.at(1) == Some('\\') {
            self.bump(); // '
            self.bump(); // backslash
            self.bump(); // escaped char
            while self.at(0).is_some_and(|c| c != '\'') {
                self.bump(); // \u{…} payloads
            }
            self.bump(); // closing '
            self.push(TokKind::CharLit, start, line);
        } else if self.at(2) == Some('\'') && self.at(1) != Some('\'') {
            self.bump();
            self.bump();
            self.bump();
            self.push(TokKind::CharLit, start, line);
        } else {
            self.bump(); // '
            while self.at(0).is_some_and(|c| c.is_alphanumeric() || c == '_') {
                self.bump();
            }
            self.push(TokKind::Lifetime, start, line);
        }
    }

    fn number(&mut self) {
        let (start, line) = (self.pos, self.line);
        while let Some(c) = self.at(0) {
            // Consume a `.` only when a digit follows, so `1..4` lexes
            // as Num Punct Punct Num instead of swallowing the range.
            let in_number = c.is_alphanumeric()
                || c == '_'
                || (c == '.' && self.at(1).is_some_and(|d| d.is_ascii_digit()));
            if !in_number {
                break;
            }
            self.bump();
        }
        self.push(TokKind::Num, start, line);
    }

    fn ident(&mut self) {
        let (start, line) = (self.pos, self.line);
        while self.at(0).is_some_and(|c| c.is_alphanumeric() || c == '_') {
            self.bump();
        }
        self.push(TokKind::Ident, start, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("let x = map.get(&k);");
        assert_eq!(toks[0], (TokKind::Ident, "let".into()));
        assert_eq!(toks[1], (TokKind::Ident, "x".into()));
        assert!(toks.iter().any(|t| t.0 == TokKind::Punct && t.1 == "."));
    }

    #[test]
    fn string_with_escapes_hides_contents() {
        let toks = kinds(r#"let s = "HashMap \" unwrap()";"#);
        assert!(!toks
            .iter()
            .any(|t| t.0 == TokKind::Ident && t.1 == "HashMap"));
        assert!(toks.iter().any(|t| t.0 == TokKind::StrLit));
    }

    #[test]
    fn raw_strings_with_hash_guards() {
        let toks = kinds(r##"let s = r#"a "quoted" panic!()"#; done"##);
        let strs: Vec<_> = toks.iter().filter(|t| t.0 == TokKind::StrLit).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].1.contains("panic"));
        assert!(toks.iter().any(|t| t.0 == TokKind::Ident && t.1 == "done"));
        assert!(!toks.iter().any(|t| t.0 == TokKind::Ident && t.1 == "panic"));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds(r#"let a = b"bytes"; let c = b'\n'; let r = rb"raw";"#);
        assert_eq!(toks.iter().filter(|t| t.0 == TokKind::StrLit).count(), 2);
        assert_eq!(toks.iter().filter(|t| t.0 == TokKind::CharLit).count(), 1);
        // `b` and `rb` must not leak as identifiers.
        assert!(!toks
            .iter()
            .any(|t| t.0 == TokKind::Ident && (t.1 == "b" || t.1 == "rb")));
    }

    #[test]
    fn identifiers_starting_with_r_and_b_are_not_strings() {
        let toks = kinds("let broadcast = rank + b + r;");
        let idents: Vec<_> = toks
            .iter()
            .filter(|t| t.0 == TokKind::Ident)
            .map(|t| t.1.as_str())
            .collect();
        assert_eq!(idents, ["let", "broadcast", "rank", "b", "r"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert_eq!(toks.iter().filter(|t| t.0 == TokKind::Lifetime).count(), 2);
        assert_eq!(toks.iter().filter(|t| t.0 == TokKind::CharLit).count(), 1);
    }

    #[test]
    fn escaped_and_unicode_char_literals() {
        let toks = kinds(r"let a = '\''; let b = '\u{03BB}'; let c = 'λ';");
        assert_eq!(toks.iter().filter(|t| t.0 == TokKind::CharLit).count(), 3);
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("a /* outer /* inner */ still comment */ z");
        let idents: Vec<_> = toks
            .iter()
            .filter(|t| t.0 == TokKind::Ident)
            .map(|t| t.1.as_str())
            .collect();
        assert_eq!(idents, ["a", "z"]);
        assert_eq!(
            toks.iter().filter(|t| t.0 == TokKind::BlockComment).count(),
            1
        );
    }

    #[test]
    fn line_numbers_track_newlines_and_multiline_tokens() {
        let src = "a\n/* two\nlines */\nb\n\"multi\nline\"\nc";
        let toks = lex(src);
        let find = |name: &str| toks.iter().find(|t| t.text == name).map(|t| t.line);
        assert_eq!(find("a"), Some(1));
        assert_eq!(find("b"), Some(4));
        assert_eq!(find("c"), Some(7));
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        let toks = kinds("for i in 1..=5 { let x = 1.5e3; }");
        assert!(toks.iter().any(|t| t.0 == TokKind::Num && t.1 == "1"));
        assert!(toks.iter().any(|t| t.0 == TokKind::Num && t.1 == "1.5e3"));
        assert_eq!(
            toks.iter()
                .filter(|t| t.0 == TokKind::Punct && t.1 == ".")
                .count(),
            2,
            "the `..` of the range survives as punctuation"
        );
    }

    #[test]
    fn doc_comments_are_comments() {
        let toks = kinds("/// calls unwrap() on x\nfn f() {}");
        assert!(!toks
            .iter()
            .any(|t| t.0 == TokKind::Ident && t.1 == "unwrap"));
        assert!(toks.iter().any(|t| t.0 == TokKind::LineComment));
    }
}
