//! Differential property of the two JSON decoders: the derive-generated
//! one-pass reader (`serde_json::try_from_str`, the fast path of
//! `from_str` and `Engine::dispatch_line`) against the `Value` tree
//! (`serde_json::parse` + `from_value`), which stays as the oracle.
//!
//! Over seeded valid, mutated, damaged and hostile lines:
//! * whenever the typed reader accepts a line, the tree path accepts it
//!   with an equal value;
//! * whenever the tree path accepts a line, the typed reader does too
//!   (in particular every envelope-shaped line `dispatch_line` would
//!   answer as an envelope).

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use whatif::server::{Envelope, Reply, Request, Response};

const CASES: usize = 4_000;

/// Both decoders on one line; values compare by their encoding, so NaN
/// fields compare equal.
fn agree<T: Deserialize + Serialize>(line: &str) -> Result<bool, String> {
    let fast = serde_json::try_from_str::<T>(line);
    let tree = serde_json::parse(line)
        .ok()
        .and_then(|v| serde_json::from_value::<T>(&v).ok());
    match (fast, tree) {
        (Some(a), Some(b)) => {
            let (a, b) = (
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
            );
            if a == b {
                Ok(true)
            } else {
                Err(format!(
                    "decoders disagree on {line:?}:\n  fast {a}\n  tree {b}"
                ))
            }
        }
        (None, None) => Ok(false),
        (Some(_), None) => Err(format!("only the typed reader accepts {line:?}")),
        (None, Some(_)) => Err(format!("only the tree path accepts {line:?}")),
    }
}

fn check_all(line: &str) -> (bool, bool) {
    let envelope = agree::<Envelope>(line).unwrap_or_else(|e| panic!("Envelope: {e}"));
    let request = agree::<Request>(line).unwrap_or_else(|e| panic!("Request: {e}"));
    agree::<Reply>(line).unwrap_or_else(|e| panic!("Reply: {e}"));
    agree::<Response>(line).unwrap_or_else(|e| panic!("Response: {e}"));
    (envelope, request)
}

#[test]
fn typed_reader_and_value_tree_accept_the_same_lines_with_equal_values() {
    let mut rng = StdRng::seed_from_u64(0xd1ff_2014);
    let mut accepted = 0;
    for _ in 0..CASES {
        let line = common::any_line(&mut rng);
        let (envelope, _) = check_all(&line);
        accepted += usize::from(envelope);
    }
    // The mix must exercise both outcomes in earnest.
    assert!(accepted > CASES / 10, "only {accepted} envelopes accepted");
    assert!(accepted < CASES * 9 / 10, "{accepted} envelopes accepted");
}

#[test]
fn every_valid_envelope_is_read_by_the_typed_reader() {
    let mut rng = StdRng::seed_from_u64(0x0e1e_2014);
    for _ in 0..CASES {
        let envelope = common::envelope(&mut rng);
        let line = serde_json::to_string(&envelope).unwrap();
        let read = serde_json::try_from_str::<Envelope>(&line)
            .unwrap_or_else(|| panic!("typed reader rejected {line}"));
        assert_eq!(serde_json::to_string(&read).unwrap(), line);
    }
}

/// Named corner cases of the shared decoding rules.
#[test]
fn decoding_rules_hold_on_both_paths() {
    for (line, envelope_ok) in [
        // First occurrence of a duplicated key wins; the later one is
        // only syntax-checked.
        (r#"{"id":1,"body":"ListUseCases","id":"x"}"#, true),
        (r#"{"id":1,"body":"ListUseCases","id":[}"#, false),
        // Missing defaulted fields; escaped keys match.
        (r#"{"id":1,"body":"ListUseCases"}"#, true),
        (r#"{"i\u0064":1,"b\u006fdy":"List\u0055seCases"}"#, true),
        // Missing `id` is a missing field, not a default.
        (r#"{"body":"ListUseCases"}"#, false),
        (r#"{"id":null,"body":"ListUseCases"}"#, false),
        // Tagged enums: unknown siblings ignored, two known keys rejected,
        // unit variants ignore their content.
        (r#"{"id":1,"body":{"note":1,"ListUseCases":[1,{}]}}"#, true),
        (
            r#"{"id":1,"body":{"ListUseCases":null,"CacheStats":null}}"#,
            false,
        ),
        (
            r#"{"id":1,"body":{"ListUseCases":null,"ListUseCases":1}}"#,
            false,
        ),
        (r#"{"id":1,"body":{}}"#, false),
        (r#"{"id":1,"body":"SensitivityView"}"#, false),
        // Numbers: i64, then u64, then f64; floats never feed integers.
        (r#"{"id":18446744073709551615,"body":"ListUseCases"}"#, true),
        (
            r#"{"id":18446744073709551616,"body":"ListUseCases"}"#,
            false,
        ),
        (r#"{"id":1.0,"body":"ListUseCases"}"#, false),
        (r#"{"id":-1,"body":"ListUseCases"}"#, false),
        // An f64 reads null as NaN, and integers as floats.
        (
            r#"{"id":1,"body":{"ComparisonView":{"session":1,"percentages":[null,1,-0.0,1e400]}}}"#,
            true,
        ),
        // Trailing characters and bad syntax inside skipped values.
        (r#"{"id":1,"body":"ListUseCases"} x"#, false),
        (r#"{"id":1,"body":"ListUseCases","extra":tru}"#, false),
        (r#"{"id":1,"body":"ListUseCases","extra":"\x"}"#, false),
        (r#" {"id":1,"body":"ListUseCases"} "#, true),
    ] {
        let (envelope, _) = check_all(line);
        assert_eq!(envelope, envelope_ok, "{line}");
    }
    let deep_ok = format!(
        r#"{{"id":1,"body":"ListUseCases","x":{}{}}}"#,
        "[".repeat(127),
        "]".repeat(127)
    );
    assert!(check_all(&deep_ok).0, "127 levels inside the envelope fit");
    let deep_bad = format!(
        r#"{{"id":1,"body":"ListUseCases","x":{}{}}}"#,
        "[".repeat(128),
        "]".repeat(128)
    );
    assert!(!check_all(&deep_bad).0, "129 levels do not");
}
