//! Property tests for the parsers behind the daemon's wire surface and the
//! CLI's spec flags: `g10_bench::json::Json::parse` (every `POST /run`
//! body and every `bench compare` snapshot), `RunRequest::from_json`,
//! `FaultPlan::from_str` (`--inject-fault`, `inject_fault`),
//! `PolicySpec::from_str` (`--policy`, `policy`) and `protocol::parse_job`
//! (`--jobs` entries, which `experiments submit` sends as `jobs: [...]`).
//!
//! Arbitrary, truncated and deeply nested input must come back as an `Ok`
//! or a typed `Err`, never a panic; generated JSON values must survive
//! `render` then `parse` unchanged.  Inputs are built from token picks over
//! small alphabets, so the characters each grammar cares about (quotes,
//! escapes, surrogate halves, brackets, colons) show up often.

use g10_bench::cli::MAX_TENANTS;
use g10_bench::json::{Json, MAX_DEPTH};
use g10_bench::serve::protocol::{parse_job, MAX_MIB};
use g10_bench::serve::{JobRequest, RunRequest};
use g10_dnn::models::MAX_BATCH;
use g10_sim::{FaultPlan, PolicyKind, PolicySpec, SimError};
use proptest::collection::vec;
use proptest::prelude::*;

fn join(tokens: &[&str], picks: &[usize]) -> String {
    picks.iter().map(|&i| tokens[i % tokens.len()]).collect()
}

/// Characters a string value may hold: the ones the renderer escapes, the
/// ones it copies through, and multi-byte UTF-8 of every length.
const STRING_CHARS: [&str; 16] = [
    "a", "Z", "0", " ", "\"", "\\", "/", "\n", "\r", "\t", "\u{1}", "\u{1f}", "é", "€", "𝄞",
    "\u{7f}",
];

/// Numbers that stress the renderer's integer and float paths.
const NUMBERS: [f64; 12] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    -2.5e-7,
    3491.719,
    1e15,
    9.0e15,
    1.7976931348623157e308,
    5e-324,
    -123456789.125,
];

/// Decodes a pick stream into one JSON value nested at most `depth` more
/// levels; the stream running dry yields `null`.
fn decode(picks: &mut impl Iterator<Item = usize>, depth: usize) -> Json {
    let Some(pick) = picks.next() else {
        return Json::Null;
    };
    let kind = if depth == 0 { pick % 4 } else { pick % 6 };
    let arg = pick / 8;
    match kind {
        0 => Json::Null,
        1 => Json::Bool(arg % 2 == 1),
        2 => Json::Num(if arg % 3 == 0 {
            NUMBERS[arg % NUMBERS.len()]
        } else {
            (arg as f64 - 4000.0) / [1.0, 3.0, 1024.0][arg % 3]
        }),
        3 => {
            let len = arg % 12;
            let chars: Vec<usize> = picks.take(len).collect();
            Json::Str(join(&STRING_CHARS, &chars))
        }
        4 => Json::Arr((0..arg % 5).map(|_| decode(picks, depth - 1)).collect()),
        _ => Json::Obj(
            (0..arg % 5)
                .map(|i| {
                    let key = join(&STRING_CHARS, &[arg + i, arg / 3 + i]);
                    (key, decode(picks, depth - 1))
                })
                .collect(),
        ),
    }
}

/// The checks every `--jobs` parse must pass: an accepted entry survives
/// `to_json` then `from_json` — in memory and through rendered text, the
/// way `experiments submit` sends it — and a refused one gets a one-line
/// message naming the entry.
fn check_job_entry(entry: &str) -> Option<JobRequest> {
    match parse_job(entry) {
        Ok(job) => {
            prop_assert_eq!(JobRequest::from_json(&job.to_json()), Ok(job.clone()));
            let wire = Json::parse(&job.to_json().render()).expect("rendered entries parse");
            prop_assert_eq!(JobRequest::from_json(&wire), Ok(job.clone()));
            Some(job)
        }
        Err(message) => {
            prop_assert!(
                message.starts_with("--jobs entry "),
                "untyped error: {message}"
            );
            prop_assert!(!message.contains('\n'), "multi-line error: {message}");
            None
        }
    }
}

/// Tokens of `--jobs` entries: model names good and bad, separators, and
/// integers at every field's boundaries (0, 255/256, `MAX_BATCH`,
/// `MAX_MIB`, 2^53, `u64::MAX` and one past it).
const JOB_TOKENS: [&str; 26] = [
    "tinycnn",
    "TinyTransformer",
    "bert",
    "nope",
    ":",
    ":",
    ":",
    ":",
    "-",
    "",
    " ",
    "0",
    "1",
    "32",
    "255",
    "256",
    "1048576",
    "1048577",
    "17592186044415",
    "17592186044416",
    "9007199254740992",
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "x",
    "é",
];

fn json_value() -> impl Strategy<Value = Json> {
    (vec(0usize..1 << 16, 0..160), 0usize..8)
        .prop_map(|(picks, depth)| decode(&mut picks.into_iter(), depth.min(MAX_DEPTH - 1)))
}

fn all_numbers_finite(value: &Json) -> bool {
    match value {
        Json::Num(n) => n.is_finite(),
        Json::Arr(items) => items.iter().all(all_numbers_finite),
        Json::Obj(entries) => entries.iter().all(|(_, v)| all_numbers_finite(v)),
        _ => true,
    }
}

/// Parses `text` (which must not panic) and, when it is accepted and holds
/// only finite numbers, checks that re-rendering it parses back unchanged.
fn parse_and_reparse(text: &str) -> Result<Json, String> {
    let parsed = Json::parse(text);
    if let Ok(value) = &parsed {
        if all_numbers_finite(value) {
            assert_eq!(
                Json::parse(&value.render()).as_ref(),
                Ok(value),
                "accepted {text:?} but its rendering does not round-trip"
            );
        }
    }
    parsed
}

/// Fragments of JSON syntax, surrogate escapes included, for documents
/// that are almost well-formed.
const JSON_TOKENS: [&str; 30] = [
    "[", "]", "{", "}", ",", ":", "\"", "\\", "\\u", "\\uD800", "\\uDBFF", "\\uDC00", "\\u0041",
    "\\u+041", "D834", "-", "0", "17", ".5", "e", "E+", "e-9", "1e999", "null", "true", "fals",
    " ", "\n", "é", "\"k\":",
];

/// Openers and the levels each adds; closed in reverse by `CLOSERS`.
const OPENERS: [(&str, usize); 4] = [("[", 1), ("{\"k\":", 1), ("[0,", 1), ("{\"a\":[", 2)];
const CLOSERS: [&str; 4] = ["]", "}", "]", "]}"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_values_round_trip_through_render(value in json_value()) {
        let text = value.render();
        prop_assert_eq!(Json::parse(&text), Ok(value.clone()));
        // The compact spelling (no structural whitespace) parses to the
        // same value: string contents never span a rendered line break.
        let compact: String = text.lines().map(str::trim_start).collect();
        prop_assert_eq!(Json::parse(&compact), Ok(value));
    }

    #[test]
    fn arbitrary_bytes_parse_or_fail_without_panicking(bytes in vec(0u8..=255, 0..2048)) {
        let _ = parse_and_reparse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn token_soup_parses_or_fails_without_panicking(picks in vec(0usize..64, 0..400)) {
        let _ = parse_and_reparse(&join(&JSON_TOKENS, &picks));
    }

    /// Valid documents with a few syntax fragments spliced in or bytes cut
    /// out: mostly near-misses, some still valid.
    #[test]
    fn edited_documents_parse_or_fail_without_panicking(
        value in json_value(),
        edits in vec((0usize..1 << 16, 0usize..64, 0usize..4), 1..4),
    ) {
        let mut text = value.render();
        for (at, token, cut) in edits {
            let mut at = at % (text.len() + 1);
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            let mut end = (at + cut).min(text.len());
            while !text.is_char_boundary(end) {
                end -= 1;
            }
            // `cut` of zero inserts a fragment; otherwise up to three bytes go.
            let token = if cut == 0 { JSON_TOKENS[token % JSON_TOKENS.len()] } else { "" };
            text.replace_range(at..end.max(at), token);
        }
        let _ = parse_and_reparse(&text);
    }

    #[test]
    fn truncated_documents_are_refused(value in json_value(), cut in 0usize..1 << 16) {
        let text = value.render();
        let text = text.trim_end();
        let mut cut = cut % text.len().max(1);
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let truncated = parse_and_reparse(&text[..cut]);
        // A proper prefix of a container or a string never closes it.
        if matches!(value, Json::Arr(_) | Json::Obj(_) | Json::Str(_)) {
            prop_assert!(truncated.is_err(), "accepted the prefix {:?}", &text[..cut]);
        }
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error(
        openers in vec(0usize..4, 0..4 * MAX_DEPTH),
        closed in 0u8..2,
    ) {
        let depth: usize = openers.iter().map(|&i| OPENERS[i].1).sum();
        let mut text: String = openers.iter().map(|&i| OPENERS[i].0).collect();
        text.push('0');
        if closed == 1 {
            text.extend(openers.iter().rev().map(|&i| CLOSERS[i]));
        }
        let parsed = parse_and_reparse(&text);
        if depth > MAX_DEPTH {
            let err = parsed.expect_err("over-deep document accepted");
            prop_assert!(err.starts_with("nesting deeper than"), "untyped error: {err}");
        } else {
            prop_assert_eq!(parsed.is_ok(), closed == 1 || depth == 0, "{}", text);
        }
    }

    /// Request-shaped bodies with arbitrary field types give a request or
    /// a 400-ready message, and accepted requests survive `to_json`.
    #[test]
    fn run_request_bodies_parse_or_fail_without_panicking(
        fields in vec((0usize..8, json_value()), 0..8),
        names in vec((0usize..8, 0usize..6), 0..8),
    ) {
        const KEYS: [&str; 8] =
            ["model", "batch", "policy", "gpu_mib", "deadline_ms", "inject_fault", "jobs", "x"];
        const MODELS: [&str; 6] = ["tinycnn", "TinyTransformer", "bert", "vit", "nope", ""];
        let mut entries: Vec<(String, Json)> = fields
            .into_iter()
            .map(|(k, v)| (KEYS[k].to_string(), v))
            .collect();
        for (k, m) in names {
            let value = match k % 3 {
                0 => Json::Str(MODELS[m].to_string()),
                1 => Json::Num(m as f64),
                _ => Json::Arr(vec![Json::Obj(vec![(
                    "model".to_string(),
                    Json::Str(MODELS[m].to_string()),
                )])]),
            };
            entries.push((KEYS[[0, 1, 6][k % 3]].to_string(), value));
        }
        let body = Json::Obj(entries);
        match RunRequest::from_json(&body) {
            Ok(request) => prop_assert_eq!(RunRequest::from_json(&request.to_json()), Ok(request)),
            Err(message) => prop_assert!(!message.is_empty()),
        }
    }

    /// `<step>:<kind>`-shaped strings: a few step tokens, a few separator
    /// tokens, a few kind tokens, so some parse and most nearly do.
    #[test]
    fn fault_plans_parse_or_give_typed_errors(
        step in vec(0usize..64, 0..3),
        colon in vec(0usize..64, 0..2),
        kind in vec(0usize..64, 1..3),
    ) {
        const STEPS: [&str; 8] = ["0", "3", "17", "42", "-1", "18446744073709551616", " ", "x"];
        const COLONS: [&str; 4] = [":", ":", ":", "::"];
        const KINDS: [&str; 8] = [
            "step-panic", "build-panic", "residency-desync", "STEP-PANIC", "é", "\t", " ", "",
        ];
        let text = join(&STEPS, &step) + &join(&COLONS, &colon) + &join(&KINDS, &kind);
        match text.parse::<FaultPlan>() {
            Ok(plan) => {
                let (step, kind) = text.split_once(':').expect("accepted plans have a colon");
                prop_assert_eq!(step.trim().parse::<usize>(), Ok(plan.step));
                prop_assert_eq!(kind.trim(), plan.fault.tag());
            }
            Err(message) => prop_assert!(
                ["fault plan `", "fault-plan step `", "unknown fault kind `"]
                    .iter()
                    .any(|prefix| message.starts_with(prefix)),
                "untyped fault-plan error: {message}"
            ),
        }
    }

    #[test]
    fn policy_specs_parse_or_give_typed_errors(
        picks in vec(0usize..64, 0..12),
        bytes in vec(0u8..=255, 0..32),
    ) {
        const TOKENS: [&str; 14] = [
            "g10", "-", "_", " ", "host", "GDS", "Base", "uvm", "deepum", "+", "Flash",
            "neuron", "é", "\u{0}",
        ];
        for text in [join(&TOKENS, &picks), String::from_utf8_lossy(&bytes).into_owned()] {
            match text.parse::<PolicySpec>() {
                Ok(PolicySpec::Builtin(kind)) => {
                    let normalized = text.trim().to_ascii_lowercase().replace([' ', '_'], "-");
                    prop_assert!(kind.names().contains(&normalized.as_str()), "{text:?}");
                }
                Ok(other) => panic!("{text:?} resolved to unregistered {other:?}"),
                Err(SimError::UnknownPolicy { name, known }) => {
                    prop_assert_eq!(name, text);
                    prop_assert!(known.iter().any(|k| k == "g10"));
                }
                Err(other) => panic!("{text:?} gave an untyped error: {other:?}"),
            }
        }
    }

    /// Every alias of every built-in, mangled the ways `normalize` forgives
    /// (case, spaces or underscores for dashes, surrounding whitespace),
    /// still resolves to its design.
    #[test]
    fn mangled_builtin_names_resolve(kind in 0usize..7, alias in 0usize..4, mangle in vec(0u8..4, 0..16)) {
        let kind = PolicyKind::ALL[kind];
        let alias = kind.names()[alias % kind.names().len()];
        let mut text: String = alias
            .chars()
            .zip(mangle.iter().chain(std::iter::repeat(&0)))
            .map(|(c, &m)| match (c, m) {
                ('-', 1) => ' ',
                ('-', 2) => '_',
                (c, 3) => c.to_ascii_uppercase(),
                (c, _) => c,
            })
            .collect();
        if mangle.len() % 2 == 1 {
            text = format!("  {text}\t");
        }
        prop_assert_eq!(text.parse::<PolicySpec>().ok(), Some(PolicySpec::Builtin(kind)));
    }

    /// Token soups and arbitrary bytes as `--jobs` entries: `Ok` or a typed
    /// `Err`, never a panic, and every `Ok` survives the wire.
    #[test]
    fn job_entries_parse_or_fail_without_panicking(
        picks in vec(0usize..64, 0..16),
        bytes in vec(0u8..=255, 0..48),
    ) {
        check_job_entry(&join(&JOB_TOKENS, &picks));
        check_job_entry(&String::from_utf8_lossy(&bytes));
    }
}

/// Each `--jobs` field at each of its boundaries, the others valid: the
/// entry parses exactly when the field is in range, an empty or `-` field
/// takes its default, and every prefix of the entry (a truncated entry)
/// parses or fails clean.
#[test]
fn job_entry_fields_are_range_checked() {
    const EDGES: [u64; 11] = [
        0,
        1,
        255,
        256,
        MAX_BATCH,
        MAX_BATCH + 1,
        MAX_MIB,
        MAX_MIB + 1,
        1 << 53,
        (1 << 53) + 1,
        u64::MAX,
    ];
    const TYPICAL: [&str; 4] = ["32", "2", "64", "5"];
    for model in ["tinycnn", "TinyTransformer", "bert"] {
        for field in 0..TYPICAL.len() {
            let texts = EDGES.iter().map(u64::to_string);
            for text in texts.chain(["".to_string(), "-".to_string()]) {
                let mut fields = TYPICAL.map(str::to_string);
                fields[field] = text.clone();
                let entry = format!("{model}:{}", fields.join(":"));
                let value = |i: usize| fields[i].parse::<u64>().ok();
                let valid = match (field, text.parse::<u64>().ok()) {
                    (_, None) => true,
                    (_, Some(v)) if v > 1 << 53 => false,
                    (0, Some(v)) => (1..=MAX_BATCH).contains(&v),
                    (1, Some(v)) => (1..=255).contains(&v),
                    (2, Some(v)) => (1..=MAX_MIB).contains(&v),
                    _ => true,
                };
                match check_job_entry(&entry) {
                    Some(job) => {
                        assert!(valid, "accepted {entry:?}");
                        assert_eq!(job.batch, value(0).unwrap_or(job.model.eval_batch()));
                        assert_eq!(Some(u64::from(job.priority)), value(1).or(Some(1)));
                        assert_eq!(job.quota_mib, value(2));
                        assert_eq!(job.arrival_us, value(3).unwrap_or(0));
                    }
                    None => assert!(!valid, "refused {entry:?}"),
                }
                for cut in 0..entry.len() {
                    check_job_entry(&entry[..cut]);
                }
            }
        }
        let extra = format!("{model}:{}:0", TYPICAL.join(":"));
        assert_eq!(check_job_entry(&extra), None, "accepted {extra:?}");
    }
}

/// A `jobs` array of up to `MAX_TENANTS` entries parses and one more is
/// refused, as `--tenants` is bounded.  Only the parse runs: no tenant is
/// built.  (`--tenants u64::MAX` is pinned in `cli_props.rs`; an array
/// cannot hold that many entries.)
#[test]
fn jobs_arrays_are_bounded_like_tenants() {
    let entry = r#"{"model":"tinycnn","batch":8}"#;
    for (count, ok) in [(1, true), (MAX_TENANTS, true), (MAX_TENANTS + 1, false)] {
        let body = format!(r#"{{"jobs":[{}]}}"#, vec![entry; count as usize].join(","));
        let parsed = RunRequest::from_json(&Json::parse(&body).unwrap());
        match ok {
            true => assert_eq!(parsed.map(|r| r.jobs.len() as u64), Ok(count)),
            false => assert_eq!(
                parsed.map(|_| ()),
                Err(format!("jobs must name at most {MAX_TENANTS} jobs"))
            ),
        }
    }
}

/// The two `--jobs` quotas the CLI used to accept: a 0-byte quota and one
/// whose byte count wraps `u64` to 1 MiB.  Both get the daemon's message.
#[test]
fn out_of_range_quotas_are_refused_like_the_daemon() {
    for quota in ["0", "17592186044417"] {
        let entry = format!("tinycnn:32:1:{quota}");
        let message = parse_job(&entry).expect_err("out-of-range quota must be refused");
        assert!(message.ends_with("quota_mib out of range"), "{message}");
        let body = Json::parse(&format!(r#"{{"model":"tinycnn","quota_mib":{quota}}}"#)).unwrap();
        assert_eq!(
            JobRequest::from_json(&body),
            Err("quota_mib out of range".to_string())
        );
    }
}

/// A batch above `MAX_BATCH`, at the top level or in a job, is refused with
/// one message; the wrapped-`u64` batch among them.  `MAX_BATCH` itself is
/// accepted.
#[test]
fn batches_above_max_batch_are_refused() {
    let refusal = format!("batch must be an integer from 1 to {MAX_BATCH}");
    for (batch, ok) in [(MAX_BATCH, true), (MAX_BATCH + 1, false), (u64::MAX, false)] {
        let top = Json::parse(&format!(r#"{{"model":"tinycnn","batch":{batch}}}"#)).unwrap();
        let job = Json::parse(&format!(
            r#"{{"jobs":[{{"model":"tinycnn","batch":{batch}}}]}}"#
        ))
        .unwrap();
        let parsed = [&top, &job].map(|body| RunRequest::from_json(body).map(|r| r.batch));
        let entry = parse_job(&format!("tinycnn:{batch}")).map(|job| job.batch);
        if ok {
            assert_eq!(parsed, [Ok(batch), Ok(batch)]);
            assert_eq!(entry, Ok(batch));
        } else {
            assert_eq!(
                parsed,
                [Err(refusal.clone()), Err(format!("jobs[0]: {refusal}"))]
            );
            let message = entry.expect_err("an over-large --jobs batch is refused");
            assert!(
                message.ends_with(&refusal)
                    || message.ends_with("batch must be an integer up to 2^53"),
                "{message}"
            );
        }
    }
}
