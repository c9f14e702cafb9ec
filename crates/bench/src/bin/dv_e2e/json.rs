//! A small JSON value: writer for results and traces, parser for
//! `diff` and `BENCHMARK.json` (the workspace is dependency-free).

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered, so emitted files read in a stable order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented rendering.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(n) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', n * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN/inf; a non-finite measurement is a bug
            // upstream and must not produce an unparsable file.
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { src: text.as_bytes(), pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.src.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, word: &str) -> Result<(), String> {
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected `{word}` at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.src.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.expect("null").map(|_| Json::Null),
            Some(b't') => self.expect("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.src.get(self.pos) == Some(&b']') {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() {
                        self.expect(",")?;
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                loop {
                    self.skip_ws();
                    if self.src.get(self.pos) == Some(&b'}') {
                        self.pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    if !pairs.is_empty() {
                        self.expect(",")?;
                        self.skip_ws();
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(":")?;
                    pairs.push((key, self.value()?));
                }
            }
            Some(_) => {
                let start = self.pos;
                while self
                    .src
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.src[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.src.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.src.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = *self.src.get(self.pos + 1).ok_or("unterminated escape")?;
                    self.pos += 2;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_parses_back() {
        let v = Json::obj([
            ("name", Json::str("a \"quoted\"\nline\t\\")),
            ("n", Json::Num(1.2034)),
            ("neg", Json::Num(-3e-7)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("list", Json::Arr(vec![Json::Num(1.0), Json::Arr(vec![]), Json::obj::<&str>([])])),
        ]);
        assert_eq!(Json::parse(&v.compact()).unwrap(), v);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
        assert!(!v.compact().contains('\n'));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("{} x").is_err());
        assert_eq!(
            Json::parse(" {\"a\": [1, 2.5e1]} ").unwrap().get("a").unwrap().as_arr().unwrap()[1],
            Json::Num(25.0)
        );
    }
}
