//! Seeded generators of v2 wire lines for the JSON codec property
//! tests: valid envelopes over cheap requests, structural and byte-level
//! mutations of them, and hostile token soup.
//!
//! Requests only ever name sessions that do not exist and never load
//! data, so dispatching any generated line does no model work: its cost
//! is the codec's.

#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use whatif::core::{
    DriverConstraint, Goal, OptimizerChoice, Perturbation, PerturbationSet, ScenarioSpec,
};
use whatif::server::{Envelope, Request};

pub use serde_json::Value;

const FLOATS: [f64; 10] = [
    f64::NAN,
    f64::INFINITY,
    -0.0,
    5e-324,
    1e300,
    -12.5,
    37.5,
    0.1,
    0.4370318064458688,
    123456789.0,
];

const WORDS: [&str; 8] = [
    "Open Marketing Email",
    "Deal Closed?",
    "",
    "q\"uote",
    "back\\slash",
    "naïve",
    "😀",
    "ctl\u{01}\n",
];

pub fn float(rng: &mut StdRng) -> f64 {
    if rng.gen_bool(0.3) {
        f64::from_bits(rng.next_u64())
    } else {
        FLOATS[rng.gen_range(0..FLOATS.len())]
    }
}

pub fn word(rng: &mut StdRng) -> String {
    WORDS[rng.gen_range(0..WORDS.len())].to_string()
}

fn id(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..4u32) {
        0 => rng.next_u64(),
        1 => u64::MAX,
        2 => i64::MAX as u64 + 1,
        _ => rng.gen_range(0..1000u64),
    }
}

fn perturbations(rng: &mut StdRng) -> Vec<Perturbation> {
    (0..rng.gen_range(0..3usize))
        .map(|_| {
            if rng.gen_bool(0.5) {
                Perturbation::percentage(word(rng), float(rng))
            } else {
                Perturbation::absolute(word(rng), float(rng))
            }
        })
        .collect()
}

/// A request that names no existing session and loads nothing.
pub fn request(rng: &mut StdRng, nested: bool) -> Request {
    let session = id(rng);
    match rng.gen_range(0..16u32) {
        0 => Request::SensitivityView {
            session,
            perturbations: perturbations(rng),
        },
        1 => Request::ComparisonView {
            session,
            percentages: (0..rng.gen_range(0..4usize)).map(|_| float(rng)).collect(),
        },
        2 => Request::PerDataView {
            session,
            row: rng.gen_range(0..100usize),
            perturbations: perturbations(rng),
        },
        3 => Request::TableView {
            session,
            max_rows: rng.gen_range(0..10usize),
        },
        4 => Request::SelectKpi {
            session,
            kpi: word(rng),
        },
        5 => Request::SelectDrivers {
            session,
            drivers: rng
                .gen_bool(0.5)
                .then(|| (0..rng.gen_range(0..3usize)).map(|_| word(rng)).collect()),
        },
        6 => Request::DriverImportanceView {
            session,
            verify: rng.gen_bool(0.5),
        },
        7 => Request::GoalInversionView {
            session,
            goal: match rng.gen_range(0..3u32) {
                0 => Goal::Maximize,
                1 => Goal::Minimize,
                _ => Goal::Target(float(rng)),
            },
            constraints: vec![DriverConstraint {
                driver: word(rng),
                low_pct: float(rng),
                high_pct: float(rng),
            }],
            optimizer: rng
                .gen_bool(0.5)
                .then_some(OptimizerChoice::NelderMead { max_evals: 9 }),
            seed: id(rng),
        },
        8 => Request::EvaluateScenarios {
            session,
            scenarios: vec![ScenarioSpec {
                name: word(rng),
                perturbations: PerturbationSet::new(perturbations(rng)),
            }],
            record: rng.gen_bool(0.5),
            n_threads: rng.gen_bool(0.5).then_some(1),
        },
        9 => Request::RecordScenario {
            session,
            name: word(rng),
        },
        10 => Request::ListScenarios { session },
        11 => Request::CloseSession { session },
        12 => Request::Train {
            session,
            config: None,
        },
        13 => Request::CacheStats,
        14 if !nested => Request::Batch(
            (0..rng.gen_range(0..3usize))
                .map(|_| request(rng, true))
                .collect(),
        ),
        _ => Request::ListUseCases,
    }
}

pub fn envelope(rng: &mut StdRng) -> Envelope {
    let mut e = Envelope::new(id(rng), request(rng, false));
    if rng.gen_bool(0.3) {
        e = e.with_trace(word(rng));
    }
    if rng.gen_bool(0.3) {
        e = e.with_deadline_ms(rng.gen_range(1..10_000u64));
    }
    if rng.gen_bool(0.2) {
        e.version = rng.gen_range(1..4u32);
    }
    e
}

/// A valid envelope line, compact as a client would send it.
pub fn envelope_line(rng: &mut StdRng) -> String {
    serde_json::to_string(&envelope(rng)).unwrap()
}

/// A small random JSON value whose keys come from a fixed alphabet
/// that includes the envelope and request field names.
pub fn random_value(rng: &mut StdRng, depth: u32) -> Value {
    const KEYS: [&str; 10] = [
        "id",
        "body",
        "version",
        "session",
        "perturbations",
        "driver",
        "kind",
        "Percentage",
        "SensitivityView",
        "x",
    ];
    let pick = if depth == 0 {
        rng.gen_range(0..6u32)
    } else {
        rng.gen_range(0..8u32)
    };
    match pick {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::I64(rng.next_u64() as i64),
        3 => Value::U64(rng.next_u64()),
        4 => Value::F64(float(rng)),
        5 => Value::String(word(rng)),
        6 => Value::Array(
            (0..rng.gen_range(0..3usize))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.gen_range(0..3usize))
                .map(|_| {
                    (
                        KEYS[rng.gen_range(0..KEYS.len())].to_string(),
                        random_value(rng, depth - 1),
                    )
                })
                .collect(),
        ),
    }
}

/// One structural edit somewhere in `v`: reorder, duplicate, drop or
/// add a key, null a value, or replace a value with random JSON.
pub fn mutate_tree(rng: &mut StdRng, v: &mut Value) {
    let descend = rng.gen_bool(0.6);
    match v {
        Value::Object(pairs) if !pairs.is_empty() && descend => {
            let k = rng.gen_range(0..pairs.len());
            mutate_tree(rng, &mut pairs[k].1);
        }
        Value::Array(items) if !items.is_empty() && descend => {
            let k = rng.gen_range(0..items.len());
            mutate_tree(rng, &mut items[k]);
        }
        Value::Object(pairs) if !pairs.is_empty() => {
            let k = rng.gen_range(0..pairs.len());
            match rng.gen_range(0..6u32) {
                0 => pairs.reverse(),
                1 => {
                    let dup = (pairs[k].0.clone(), random_value(rng, 2));
                    let at = rng.gen_range(0..=pairs.len());
                    pairs.insert(at, dup);
                }
                2 => {
                    pairs.remove(k);
                }
                3 => pairs.push(("unknown".into(), random_value(rng, 2))),
                4 => pairs[k].1 = Value::Null,
                _ => pairs[k].1 = random_value(rng, 2),
            }
        }
        other => *other = random_value(rng, 2),
    }
}

/// Render `v` as JSON text with random whitespace, `\u` escapes in
/// strings and alternative number spellings.
pub fn render(rng: &mut StdRng, v: &Value, out: &mut String) {
    let ws = |rng: &mut StdRng, out: &mut String| {
        if rng.gen_bool(0.1) {
            out.push_str([" ", "\n", "\t ", "\r\n"][rng.gen_range(0..4usize)]);
        }
    };
    ws(rng, out);
    match v {
        Value::String(s) => render_str(rng, s, out),
        Value::F64(x) if x.is_finite() && rng.gen_bool(0.3) => out.push_str(&format!("{x:e}")),
        Value::I64(x) if rng.gen_bool(0.1) => out.push_str(&format!("{x}.0")),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(rng, item, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                render_str(rng, k, out);
                ws(rng, out);
                out.push(':');
                render(rng, item, out);
            }
            ws(rng, out);
            out.push('}');
        }
        other => out.push_str(&serde_json::to_string(other).unwrap()),
    }
    ws(rng, out);
}

fn render_str(rng: &mut StdRng, s: &str, out: &mut String) {
    if !rng.gen_bool(0.15) {
        out.push_str(&serde_json::to_string(s).unwrap());
        return;
    }
    out.push('"');
    for c in s.chars() {
        let mut units = [0u16; 2];
        for u in c.encode_utf16(&mut units) {
            out.push_str(&format!("\\u{:04X}", u));
        }
    }
    out.push('"');
}

/// A structurally mutated (and re-rendered) valid envelope.
pub fn mutated_envelope_line(rng: &mut StdRng) -> String {
    let mut tree = serde_json::parse(&envelope_line(rng)).unwrap();
    for _ in 0..rng.gen_range(0..4u32) {
        mutate_tree(rng, &mut tree);
    }
    let mut out = String::new();
    render(rng, &tree, &mut out);
    out
}

/// Byte-level damage: delete, duplicate, insert or truncate.
pub fn damage(rng: &mut StdRng, line: &str) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    for _ in 0..rng.gen_range(1..4u32) {
        if chars.is_empty() {
            break;
        }
        let k = rng.gen_range(0..chars.len());
        match rng.gen_range(0..4u32) {
            0 => {
                chars.remove(k);
            }
            1 => chars.insert(k, chars[k]),
            2 => chars.insert(k, SOUP_CHARS[rng.gen_range(0..SOUP_CHARS.len())]),
            _ => chars.truncate(k),
        }
    }
    chars.into_iter().collect()
}

const SOUP_CHARS: [char; 16] = [
    '{', '}', '[', ']', ',', ':', '"', '\\', '-', '0', '9', 'e', '.', 'n', ' ', 'é',
];

const SOUP_TOKENS: [&str; 24] = [
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"id\"",
    "\"body\"",
    "\"version\"",
    "null",
    "true",
    "false",
    "0",
    "-1",
    "1e400",
    "18446744073709551616",
    "3.5",
    "\"\\u00e9\"",
    "\"\\ud800\"",
    "\"x",
    "\"SensitivityView\"",
    "\"ListUseCases\"",
    "\"\\q\"",
    "nul",
];

/// Hostile token soup: JSON-ish tokens in random order, sometimes deeply
/// nested.
pub fn token_soup(rng: &mut StdRng) -> String {
    match rng.gen_range(0..5u32) {
        0 => {
            let n = rng.gen_range(100..300usize);
            let (open, close) = if rng.gen_bool(0.5) {
                ("[", "]")
            } else {
                ("{\"a\":", "}")
            };
            format!("{}1{}", open.repeat(n), close.repeat(rng.gen_range(0..=n)))
        }
        _ => (0..rng.gen_range(0..40usize))
            .map(|_| SOUP_TOKENS[rng.gen_range(0..SOUP_TOKENS.len())])
            .collect(),
    }
}

/// One line from the whole mix: valid, mutated, damaged or soup.
pub fn any_line(rng: &mut StdRng) -> String {
    match rng.gen_range(0..5u32) {
        0 => envelope_line(rng),
        1 | 2 => mutated_envelope_line(rng),
        3 => {
            let line = envelope_line(rng);
            damage(rng, &line)
        }
        _ => token_soup(rng),
    }
}
