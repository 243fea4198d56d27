//! Error-path coverage for the in-repo JSON parser: every rejection
//! carries the documented message and the byte offset of the *first*
//! problem, so a failure on a malformed document points at the offending
//! byte, not just "parse error".

use mic_bench::json::{parse, Json, ParseError};

fn fail(input: &str) -> ParseError {
    parse(input).expect_err("input must be rejected")
}

/// `(message, offset)` of the rejection, for compact assertions.
fn diag(input: &str) -> (String, usize) {
    let e = fail(input);
    (e.message, e.offset)
}

#[test]
fn trailing_content_points_at_the_first_extra_byte() {
    assert_eq!(diag("{} x"), ("trailing content".into(), 3));
    assert_eq!(diag("1 2"), ("trailing content".into(), 2));
    // Trailing whitespace alone is fine.
    assert!(parse("{}  \n").is_ok());
}

#[test]
fn missing_values_name_the_expectation_and_position() {
    assert_eq!(diag("  @"), ("expected a value".into(), 2));
    assert_eq!(diag(""), ("expected a value".into(), 0));
    // A half-typed literal is reported as the literal it started.
    assert_eq!(diag("tru"), ("expected 'true'".into(), 0));
    assert_eq!(diag("nul"), ("expected 'null'".into(), 0));
    assert_eq!(diag("farce"), ("expected 'false'".into(), 0));
}

#[test]
fn object_errors_point_inside_the_object() {
    assert_eq!(diag("{\"a\" 1}"), ("expected ':'".into(), 5));
    assert_eq!(diag("{\"a\":1 \"b\":2}"), ("expected ',' or '}'".into(), 7));
    // After a comma an object requires another key string.
    assert_eq!(diag("{\"a\":1,}"), ("expected '\"'".into(), 7));
}

#[test]
fn array_errors_point_inside_the_array() {
    assert_eq!(diag("[1 2]"), ("expected ',' or ']'".into(), 3));
    // A dangling comma demands another value.
    assert_eq!(diag("[1,]"), ("expected a value".into(), 3));
}

#[test]
fn string_errors_cover_termination_and_escapes() {
    assert_eq!(diag("\"abc"), ("unterminated string".into(), 4));
    // Too few bytes left for the four hex digits.
    assert_eq!(diag("\"\\u12\""), ("truncated \\u escape".into(), 2));
    // Four bytes present but not hex.
    assert_eq!(diag("\"\\uzzzz\""), ("bad \\u escape".into(), 2));
    // Valid hex, but an unpaired surrogate is not a scalar value.
    assert_eq!(diag("\"\\uD800\""), ("bad \\u escape".into(), 2));
    assert_eq!(diag("\"\\x\""), ("bad escape".into(), 2));
}

#[test]
fn number_errors_report_after_the_consumed_prefix() {
    assert_eq!(diag("-"), ("bad number".into(), 1));
    assert_eq!(diag("1e"), ("bad number".into(), 2));
    assert_eq!(diag("[3, -.]"), ("bad number".into(), 6));
}

#[test]
fn truncated_bench_envelope_fails_at_the_cut() {
    // A document cut mid-write: the open string runs to EOF.
    let cut = "{\n  \"schema_version\": 1,\n  \"bench\": \"fuzz\",\n  \"mo";
    assert_eq!(diag(cut), ("unterminated string".into(), cut.len()));
    // Cut between fields instead: the object never closes.
    let cut = "{\n  \"schema_version\": 1,";
    assert_eq!(diag(cut), ("expected '\"'".into(), cut.len()));
}

#[test]
fn display_renders_message_and_byte_offset() {
    let e = fail("[1,]");
    assert_eq!(e.to_string(), "expected a value at byte 3");
}

#[test]
fn errors_do_not_shadow_valid_documents() {
    // The error paths above must not make the happy path lossy: a full
    // envelope round-trips with every field reachable.
    let doc = "{\"schema_version\": 1, \"bench\": \"fuzz\", \"ok\": true, \
               \"list\": [1, 2.5, -3e2], \"nested\": {\"x\": null}}";
    let v = parse(doc).expect("valid document");
    assert_eq!(v.get("schema_version").and_then(Json::as_u64), Some(1));
    assert_eq!(v.get("bench").and_then(Json::as_str), Some("fuzz"));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        v.get("list").and_then(Json::as_array).map(<[Json]>::len),
        Some(3)
    );
    assert!(v.get("nested").and_then(|n| n.get("x")).is_some());
}
