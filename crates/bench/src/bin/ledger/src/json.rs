//! The little JSON this binary needs, std-only: a value type, a parser for
//! the result files `ledger compare` reads, and string escaping / number
//! formatting for the lines it writes.

use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(map) => Some(map),
            _ => None,
        }
    }
}

/// A JSON string literal for `s` — the repository's own escaper.
pub use minesweeper_join::core::json_string as quote;

/// A JSON number for `v`, with all its digits; `null` for a non-finite value
/// (JSON has no NaN).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = p.value()?;
    p.skip_space();
    if p.at == p.bytes.len() {
        Ok(value)
    } else {
        Err(p.fail("trailing characters"))
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn fail(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.at)
    }

    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(literal.as_bytes());
        self.at += if hit { literal.len() } else { 0 };
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut map = BTreeMap::new();
                loop {
                    self.skip_space();
                    if self.eat("}") {
                        return Ok(Json::Object(map));
                    }
                    if !map.is_empty() && !self.eat(",") {
                        return Err(self.fail("expected , or }"));
                    }
                    self.skip_space();
                    let key = self.string()?;
                    self.skip_space();
                    if !self.eat(":") {
                        return Err(self.fail("expected :"));
                    }
                    map.insert(key, self.value()?);
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_space();
                    if self.eat("]") {
                        return Ok(Json::Array(items));
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(self.fail("expected , or ]"));
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'"') => self.string().map(Json::String),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b"+-.eE0123456789".contains(b))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Number)
                    .ok_or_else(|| self.fail("expected a value"))
            }
            None => Err(self.fail("unexpected end")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.fail("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| self.fail("bad UTF-8"));
                }
                Some(b'\\') => {
                    let escaped = *self.bytes.get(self.at + 1).ok_or(self.fail("bad escape"))?;
                    self.at += 2;
                    match escaped {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.bytes.get(self.at..self.at + 4);
                            let c = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            self.at += 4;
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other), // \" \\ \/
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.at += 1;
                }
                None => return Err(self.fail("unterminated string")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_the_ledger_writes() {
        let line = format!(
            "{{\"workload\":{},\"correct\":true,\"failed\":0,\"metrics\":{{\"p50\":{{\"value\":{},\
             \"unit\":\"ms\"}}}},\"parts\":[1.5,{}],\"none\":null}}",
            quote("tri\"angle\n"),
            number(0.1 + 0.2),
            number(f64::NAN),
        );
        let v = parse(&line).unwrap();
        assert_eq!(v.get("workload").unwrap().as_str(), Some("tri\"angle\n"));
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let p50 = v.get("metrics").unwrap().get("p50").unwrap();
        assert_eq!(
            p50.get("value").unwrap().as_f64(),
            Some(0.1 + 0.2),
            "all the digits"
        );
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("ms"));
        let parts = v.get("parts").unwrap().as_array().unwrap();
        assert_eq!((parts[0].as_f64(), &parts[1]), (Some(1.5), &Json::Null));
        assert_eq!(v.as_object().unwrap().len(), 6);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1 2]",
            "{\"a\":1} x",
            "\"open",
            "tru",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        assert_eq!(parse(" [ ] ").unwrap(), Json::Array(vec![]));
        assert_eq!(parse("-2.5e3").unwrap(), Json::Number(-2500.0));
        assert_eq!(parse("\"\\u00e9\"").unwrap(), Json::String("é".into()));
    }
}
