//! The borrowed `/v1/score` decoder against its oracle, the derived
//! `Deserialize` of `Vec<ScoreItem>` then `ScoreRequest`, on seeded
//! generated bodies; the request writer against `serde_json::to_string`;
//! and a seeded mutation pass in which every body ends in a value or a
//! typed error, never a panic.

use cats_serve::wire::{decode_score_request, write_score_request};
use cats_serve::{ChaosRng, ScoreItem, ScoreRequest};

/// What the server read `/v1/score` bodies with before the borrowed
/// decoder: the derived decoders, bare array first.
fn oracle(body: &str) -> Result<(Vec<ScoreItem>, Option<u64>), serde_json::Error> {
    serde_json::from_str::<Vec<ScoreItem>>(body)
        .map(|items| (items, None))
        .or_else(|_| serde_json::from_str::<ScoreRequest>(body).map(|r| (r.items, r.pin_version)))
}

/// Seeded generator of score bodies, mostly valid, with escapes, raw
/// non-ASCII, whitespace, unknown and duplicate fields.
struct Gen {
    rng: ChaosRng,
}

/// Characters comments are drawn from: ASCII, the characters JSON must
/// escape, raw non-ASCII (2-, 3- and 4-byte UTF-8) and two that JSON may
/// but need not escape.
const CHARS: [char; 18] = [
    'a', 'z', ' ', '0', '!', '"', '\\', '/', 'é', '控', '✓', '😀', '\u{1}', '\n', '\t', '\u{8}',
    '\u{7f}', '\u{2028}',
];

impl Gen {
    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.rng.below(from.len() as u64) as usize]
    }

    fn ws(&mut self) -> &'static str {
        self.pick(&["", "", "", " ", "\n", "\t ", "\r\n  "])
    }

    fn hex4(&mut self, unit: u32) -> String {
        if self.rng.chance(0.5) {
            format!("\\u{unit:04x}")
        } else {
            format!("\\u{unit:04X}")
        }
    }

    /// One JSON string literal; returns it and whether it holds an
    /// escape.
    fn string(&mut self, max_len: u64) -> (String, bool) {
        let mut json = String::from("\"");
        for _ in 0..self.rng.below(max_len + 1) {
            let c = self.pick(&CHARS);
            let forced = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '\n' => Some("\\n"),
                '\t' => Some("\\t"),
                '\u{8}' => Some("\\b"),
                _ => None,
            };
            let as_unit = (c as u32) < 0x20 || forced.is_some() || self.rng.chance(0.1);
            if let Some(short) = forced.filter(|_| self.rng.chance(0.5)) {
                json.push_str(short);
            } else if c == '/' && self.rng.chance(0.3) {
                json.push_str("\\/");
            } else if as_unit {
                let mut units = [0u16; 2];
                for &u in c.encode_utf16(&mut units).iter() {
                    let escaped = self.hex4(u32::from(u));
                    json.push_str(&escaped);
                }
            } else {
                json.push(c);
            }
        }
        json.push('"');
        let escaped = json.contains('\\');
        (json, escaped)
    }

    /// Any JSON value, for unknown fields.
    fn value(&mut self, depth: u32) -> String {
        match self.rng.below(if depth > 2 { 5 } else { 7 }) {
            0 => "null".into(),
            1 => self.pick(&["true", "false"]).into(),
            2 => self.pick(&["0", "-1", "3.5", "1e9", "18446744073709551616"]).into(),
            3 | 4 => self.string(6).0,
            5 => {
                let n = self.rng.below(3);
                let parts: Vec<String> = (0..n).map(|_| self.value(depth + 1)).collect();
                format!("[{}]", parts.join(","))
            }
            _ => {
                let n = self.rng.below(3);
                let parts: Vec<String> = (0..n)
                    .map(|_| format!("{}:{}", self.string(3).0, self.value(depth + 1)))
                    .collect();
                format!("{{{}}}", parts.join(","))
            }
        }
    }

    /// An unsigned integer literal; rarely one the oracle refuses.
    fn uint(&mut self) -> String {
        match self.rng.below(40) {
            0 => "-1".into(),
            1 => "2.0".into(),
            2 => "18446744073709551616".into(),
            3 => "\"7\"".into(),
            4 => u64::MAX.to_string(),
            _ => self.rng.below(10_000).to_string(),
        }
    }

    /// Writes an object from `(key, value)` fields, shuffled, sometimes
    /// with an unknown field and, rarely, a duplicate or a missing one.
    fn object(&mut self, mut fields: Vec<(String, String)>) -> String {
        if !fields.is_empty() && self.rng.chance(0.02) {
            let k = self.rng.below(fields.len() as u64) as usize;
            fields.remove(k);
        }
        if !fields.is_empty() && self.rng.chance(0.02) {
            let k = self.rng.below(fields.len() as u64) as usize;
            fields.push(fields[k].clone());
        }
        if self.rng.chance(0.2) {
            let key = self.pick(&["\"note\"", "\"Item_id\"", "\"comments_\"", "\"\""]).into();
            let value = self.value(0);
            fields.push((key, value));
        }
        for i in (1..fields.len()).rev() {
            fields.swap(i, self.rng.below(i as u64 + 1) as usize);
        }
        let mut out = String::from("{");
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (a, b, c) = (self.ws(), self.ws(), self.ws());
            out.push_str(&format!("{a}{k}{b}:{c}{v}"));
        }
        out.push_str(self.ws());
        out.push('}');
        out
    }

    /// A whole body, plus the escape flag of every comment in order.
    fn body(&mut self) -> (String, Vec<bool>) {
        let mut escaped = Vec::new();
        let mut items = Vec::new();
        for _ in 0..self.rng.below(6) {
            let mut comments = Vec::new();
            for _ in 0..self.rng.below(5) {
                let (json, esc) = self.string(12);
                comments.push(json);
                escaped.push(esc);
            }
            let comments = format!("[{}]", comments.join(&format!(",{}", self.ws())));
            let fields = vec![
                ("\"item_id\"".to_string(), self.uint()),
                ("\"sales_volume\"".to_string(), self.uint()),
                ("\"comments\"".to_string(), comments),
            ];
            items.push(self.object(fields));
        }
        let array = format!("[{}{}]", items.join(&format!("{},", self.ws())), self.ws());
        let body = if self.rng.chance(0.3) {
            array
        } else {
            let mut fields = vec![("\"items\"".to_string(), array)];
            match self.rng.below(4) {
                0 => {}
                1 => fields.push(("\"pin_version\"".into(), "null".into())),
                _ => {
                    let pin = self.uint();
                    fields.push(("\"pin_version\"".into(), pin));
                }
            }
            self.object(fields)
        };
        (format!("{}{body}{}", self.ws(), self.ws()), escaped)
    }
}

/// Decodes `body` both ways and requires the same `Ok` value or an
/// error from both; on `Ok`, also requires the writer to give the text
/// `serde_json::to_string` gives for the same request.
fn agree(body: &str) -> bool {
    let decoded = decode_score_request(body);
    match (&decoded, oracle(body)) {
        (Ok((items, pin)), Ok((want, want_pin))) => {
            let owned: Vec<ScoreItem> = items.iter().cloned().map(|i| i.into_owned()).collect();
            assert_eq!((&owned, pin), (&want, &want_pin), "decoded values differ: {body}");
            for c in items.iter().flat_map(|i| &i.comments) {
                if c.is_verbatim() {
                    assert!(
                        !c.as_str().contains(|ch: char| ch == '"' || ch == '\\' || ch < ' '),
                        "a verbatim comment must need no escape: {:?}",
                        c.as_str()
                    );
                }
            }
            for pin in [*pin, Some(7)] {
                let written = write_score_request(items, pin);
                let request = ScoreRequest { items: want.clone(), pin_version: pin };
                assert_eq!(written, serde_json::to_string(&request).unwrap(), "writer: {body}");
            }
            true
        }
        (Err(_), Err(_)) => false,
        (got, want) => panic!("decoder and oracle disagree on {body:?}: {got:?} vs {want:?}"),
    }
}

#[test]
fn decoder_matches_the_derived_oracle_on_generated_bodies() {
    let mut gen = Gen { rng: ChaosRng::new(0xB0D1) };
    let (mut ok, mut verbatim, mut copied) = (0, 0, 0);
    for _ in 0..3_000 {
        let (body, escaped) = gen.body();
        if !agree(&body) {
            continue;
        }
        ok += 1;
        // A valid body's comments are its generated ones, in order: only
        // those written with an escape are copied.
        let (items, _) = decode_score_request(&body).unwrap();
        let flags: Vec<bool> =
            items.iter().flat_map(|i| &i.comments).map(|c| c.is_verbatim()).collect();
        assert_eq!(flags.len(), escaped.len(), "{body}");
        for (verbatim_now, &esc) in flags.iter().zip(&escaped) {
            assert_eq!(*verbatim_now, !esc, "borrowed iff unescaped: {body}");
        }
        verbatim += flags.iter().filter(|&&v| v).count();
        copied += flags.iter().filter(|&&v| !v).count();
    }
    // The generator must exercise both outcomes and both comment forms.
    assert!((1_000..3_000).contains(&ok), "{ok} of 3000 generated bodies were valid");
    assert!(verbatim > 1_000 && copied > 1_000, "{verbatim} verbatim, {copied} copied");
}

#[test]
fn decoder_edge_cases_match_the_oracle() {
    let item = r#"{"item_id":1,"sales_volume":2,"comments":["a"]}"#;
    for body in [
        String::new(),
        " ".into(),
        "[]".into(),
        " [ ] ".into(),
        "{}".into(),
        r#"{"items":[]}"#.into(),
        r#"{"items":[],"pin_version":null}"#.into(),
        r#"{"pin_version":3,"items":[]}"#.into(),
        r#"{"items":[],"pin_version":null,"pin_version":null}"#.into(),
        r#"{"items":[],"items":[]}"#.into(),
        r#"{"items":null}"#.into(),
        r#"{"pin_version":1}"#.into(),
        format!("[{item}] x"),
        format!("[{item},]"),
        format!("{{\"items\":[{item}],\"pin_version\":-1}}"),
        format!("{{\"items\":[{item}],\"pin_version\":1.0}}"),
        format!("{{\"items\":[{item}],\"pin_version\":\"1\"}}"),
        format!("{{\"it\\u0065ms\":[{item}]}}"),
        r#"[{"item_id":1,"sales_volume":2,"comments":["😀","\ud83d"]}]"#.into(),
        r#"[{"item_id":1,"sales_volume":2,"comments":["\udc00"]}]"#.into(),
        r#"[{"item_id":1,"sales_volume":2,"comments":["é\/\"\\"]}]"#.into(),
        "[{\"item_id\":1,\"sales_volume\":2,\"comments\":[\"raw\u{1}control\"]}]".into(),
        r#"[{"item_id":1,"sales_volume":2,"comments":[null]}]"#.into(),
        r#"[{"item_id":1,"sales_volume":2}]"#.into(),
        r#"[{"item_id":1,"item_id":1,"sales_volume":2,"comments":[]}]"#.into(),
        r#"[{"item_id":1,"sales_volume":2,"comments":[],"x":[[[{"y":[]}]]]}]"#.into(),
        r#"[[]]"#.into(),
        r#""items""#.into(),
    ] {
        agree(&body);
    }
}

/// Applies one seeded mutation to `body`: bit flips, truncation, deep
/// nesting or one inserted structural byte.
fn mutate(body: &[u8], rng: &mut ChaosRng) -> (Vec<u8>, &'static str) {
    let mut b = body.to_vec();
    match rng.below(4) {
        0 => {
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(b.len() as u64) as usize;
                b[at] ^= 1 << rng.below(8);
            }
            (b, "bit flip")
        }
        1 => {
            b.truncate(rng.below(b.len() as u64) as usize);
            (b, "truncation")
        }
        2 => {
            let depth = 100 + rng.below(5_000) as usize;
            let at = 1 + rng.below(b.len() as u64 - 1) as usize;
            let open = if rng.chance(0.5) { "[" } else { "{\"k\":" };
            let close = if open == "[" { "]" } else { "}" };
            let nest = format!("{}0{}", open.repeat(depth), close.repeat(depth));
            b.splice(at..at, nest.bytes());
            (b, "deep nesting")
        }
        _ => {
            let at = rng.below(b.len() as u64) as usize;
            b.insert(at, [b'"', b'}', b',', b'\\', 0xFF, b'9', b'e', b'['][rng.below(8) as usize]);
            (b, "byte insertion")
        }
    }
}

/// `cases` seeded mutations of generated bodies. Each must decode to a
/// value or a typed error without panicking, agree with the oracle on
/// which, and fail when it is a strict prefix of a valid body.
fn mutation_pass(seed: u64, cases: usize) {
    let mut gen = Gen { rng: ChaosRng::new(seed) };
    let mut rng = ChaosRng::new(seed ^ 0x5EED);
    let mut bases = Vec::new();
    while bases.len() < 64 {
        let (body, _) = gen.body();
        if body.len() > 8 && oracle(&body).is_ok() {
            bases.push(body);
        }
    }
    for case in 0..cases {
        let base = &bases[case % bases.len()];
        let (bytes, kind) = mutate(base.as_bytes(), &mut rng);
        let Ok(body) = std::str::from_utf8(&bytes) else {
            continue;
        };
        let outcome = std::panic::catch_unwind(|| agree(body));
        let parsed = outcome.unwrap_or_else(|_| panic!("case {case} ({kind}) panicked: {body:?}"));
        if kind == "truncation" && !base[body.len()..].trim().is_empty() {
            assert!(!parsed, "case {case}: a strict prefix decoded: {body:?}");
        }
    }
}

#[test]
fn mutated_bodies_end_in_values_or_typed_errors() {
    mutation_pass(0x3A7E, 2_000);
}

/// 100× the tier-1 mutation pass; run with `--ignored`.
#[test]
#[ignore]
fn mutated_bodies_end_in_values_or_typed_errors_long() {
    mutation_pass(0x3A7F, 200_000);
}
