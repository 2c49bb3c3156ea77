//! Property tests for `g10_bench::cli::parse`, the `experiments` command
//! line, called directly (no subprocess).  Argv is drawn from the flag
//! names of `cli::FLAGS`, command words, and values each check must weigh:
//! `""`, `-1`, `nan`, `inf`, `1e999`, `18446744073709551616`, `0`,
//! each bound (`MAX_BATCH`, `MAX_TENANTS`, `MAX_WORKERS`, `MAX_QUEUE_DEPTH`)
//! and one past it, `u64::MAX` and `3:step-panic`.
//!
//! No argv panics; every valued flag given last errors with `needs`; every
//! (flag, command) pair outside the table is refused with `does not take`,
//! and every pair inside it parses when given a valid value; numeric flags
//! refuse NaN, infinity, negatives and overflow, and each bounded flag
//! (`--batch`, `--tenants`, `--workers`, `--queue-depth`) anything above
//! its bound.  Only `parse` runs: no value is ever acted on, so no test
//! starts the threads or builds the tenants a value names.

use g10_bench::cli::{self, Check, Command, FLAGS, MAX_QUEUE_DEPTH, MAX_TENANTS, MAX_WORKERS};
use g10_dnn::models::MAX_BATCH;
use proptest::collection::vec;
use proptest::prelude::*;

/// One command line per command, and how many of its words name it.
const COMMANDS: [(Command, &[&str], usize); 10] = [
    (Command::Figure, &["fig3"], 1),
    (Command::Figure, &["lifetime"], 1),
    (Command::Figure, &["all"], 1),
    (Command::Run, &["run"], 1),
    (Command::Multi, &["multi"], 1),
    (Command::Serve, &["serve"], 1),
    (Command::Submit, &["submit"], 1),
    (Command::CacheGc, &["cache", "gc"], 2),
    (Command::BenchSnapshot, &["bench", "snapshot"], 2),
    (
        Command::BenchCompare,
        &["bench", "compare", "a.json", "b.json"],
        2,
    ),
];

fn argv(words: &[&str]) -> Vec<String> {
    words.iter().map(|word| word.to_string()).collect()
}

/// A value `check` accepts, or `None` for a switch.
fn valid(check: Check) -> Option<&'static str> {
    match check {
        Check::Switch => None,
        Check::Text(_) => Some("x"),
        Check::U64 => Some("0"),
        Check::UpTo(_) => Some("1"),
        Check::PositiveF64 => Some("1.5"),
        Check::Fault => Some("3:step-panic"),
    }
}

#[test]
fn the_table_names_each_flag_once_and_every_command_somewhere() {
    for (i, flag) in FLAGS.iter().enumerate() {
        assert!(flag.name.starts_with("--"), "{}", flag.name);
        let again = FLAGS[i + 1..].iter().any(|other| other.name == flag.name);
        assert!(!again, "{} is declared twice", flag.name);
        assert!(
            !flag.commands.is_empty(),
            "{} is read by no command",
            flag.name
        );
    }
    for command in Command::ALL {
        assert!(
            COMMANDS.iter().any(|(c, _, _)| *c == command),
            "{command:?}"
        );
    }
}

#[test]
fn every_flag_parses_where_the_table_puts_it_and_is_refused_elsewhere() {
    for (command, words, named) in COMMANDS {
        for flag in FLAGS {
            let mut line = argv(words);
            line.push(flag.name.to_string());
            line.extend(valid(flag.check).map(str::to_string));
            let result = cli::parse(&line);
            if flag.commands.contains(&command) {
                let args = result
                    .unwrap_or_else(|err| panic!("{line:?}: {err}"))
                    .expect("not a help request");
                assert_eq!(args.command, command, "{line:?}");
                assert_eq!(args.words, argv(words), "{line:?}");
                let given = valid(flag.check).unwrap_or("");
                assert_eq!(args.text(flag.name), Some(given), "{line:?}");
            } else {
                let expected = format!("{} does not take {}", words[..named].join(" "), flag.name);
                assert_eq!(result.map(|_| ()), Err(expected), "{line:?}");
            }
        }
    }
}

#[test]
fn every_valued_flag_given_last_needs_its_argument() {
    for flag in FLAGS.iter().filter(|flag| flag.check != Check::Switch) {
        for (_, words, _) in COMMANDS {
            let mut line = argv(words);
            line.push(flag.name.to_string());
            let expected = format!("{} needs {} argument", flag.name, flag.noun);
            assert_eq!(cli::parse(&line).map(|_| ()), Err(expected), "{line:?}");
        }
    }
}

#[test]
fn numeric_flags_refuse_nan_infinity_negatives_and_overflow() {
    let refused = [
        "", "x", "nan", "NaN", "inf", "-inf", "infinity", "1e999", "-1", "-0.5",
    ];
    for flag in FLAGS {
        let (zero_ok, max) = match flag.check {
            Check::U64 => (true, u64::MAX),
            Check::PositiveF64 => (false, u64::MAX),
            Check::UpTo(max) => (false, max),
            _ => continue,
        };
        let (command, words, _) = COMMANDS
            .iter()
            .find(|(command, _, _)| flag.commands.contains(command))
            .expect("every flag has a command");
        let zero = (!zero_ok).then(|| "0".to_string());
        // One past `u64::MAX` overflows an integer; a float reads it
        // exactly, and overflows at `1e999` instead.
        let overflow = (flag.check != Check::PositiveF64).then(|| "18446744073709551616".into());
        // A bound below `u64::MAX` refuses one past it and `u64::MAX`.
        let above = (max < u64::MAX).then(|| [max + 1, u64::MAX].map(|n| n.to_string()));
        let refused = refused.into_iter().map(str::to_string);
        for value in refused
            .chain(zero)
            .chain(overflow)
            .chain(above.into_iter().flatten())
        {
            let mut line = argv(words);
            line.extend([flag.name.to_string(), value]);
            let expected = format!("{} needs {} argument", flag.name, flag.noun);
            assert_eq!(cli::parse(&line).map(|_| ()), Err(expected), "{line:?}");
        }
        let mut line = argv(words);
        line.extend([flag.name.to_string(), max.to_string()]);
        let args = cli::parse(&line).expect("the bound is in range").unwrap();
        assert_eq!(args.command, *command);
    }
}

#[test]
fn batch_is_bounded_by_max_batch_and_help_says_so() {
    let bound = MAX_BATCH.to_string();
    let batch = FLAGS.iter().find(|flag| flag.name == "--batch").unwrap();
    assert_eq!(batch.check, Check::UpTo(MAX_BATCH));
    assert!(batch.noun.contains(&bound), "{}", batch.noun);
    assert!(cli::usage().contains(&format!("is 1 to {bound}")));
    for command in ["run", "submit"] {
        for (value, ok) in [
            ("1", true),
            (bound.as_str(), true),
            ("1048577", false),
            ("18446744073709551615", false),
        ] {
            let line = argv(&[command, "--model", "tinycnn", "--batch", value]);
            let parsed = cli::parse(&line).map(|args| args.unwrap().get::<u64>("--batch"));
            let expected = match ok {
                true => Ok(value.parse().ok()),
                false => Err(format!("--batch needs {} argument", batch.noun)),
            };
            assert_eq!(parsed, expected, "{line:?}");
        }
    }
}

#[test]
fn tenants_workers_and_queue_depth_are_bounded_and_help_says_so() {
    let usage = cli::usage();
    for (name, command, bound) in [
        ("--tenants", "multi", MAX_TENANTS),
        ("--workers", "serve", MAX_WORKERS),
        ("--queue-depth", "serve", MAX_QUEUE_DEPTH),
    ] {
        let flag = FLAGS.iter().find(|flag| flag.name == name).unwrap();
        assert_eq!(flag.check, Check::UpTo(bound), "{name}");
        assert_eq!(flag.noun, format!("a 1-to-{bound} integer"), "{name}");
        assert!(usage.contains(&format!("[{name} 1..{bound}]")), "{name}");
        for (value, ok) in [(bound, true), (bound + 1, false), (u64::MAX, false)] {
            let line = argv(&[command, name, &value.to_string()]);
            let parsed = cli::parse(&line).map(|args| args.unwrap().get::<u64>(name));
            let expected = match ok {
                true => Ok(Some(value)),
                false => Err(format!("{name} needs {} argument", flag.noun)),
            };
            assert_eq!(parsed, expected, "{line:?}");
        }
    }
    assert!(usage.contains(&format!("--jobs names at\nmost {MAX_TENANTS}")));
}

#[test]
fn a_bad_fault_plan_is_refused_with_its_parse_error() {
    for plan in ["", "3", "x:step-panic", "3:no-such-fault", "-1:step-panic"] {
        let line = argv(&["run", "--model", "tinycnn", "--inject-fault", plan]);
        let err = cli::parse(&line).expect_err(plan);
        assert!(err.starts_with("--inject-fault: "), "{plan:?}: {err}");
    }
    // Bookkeeping corruptions are not injectable; the error lists the
    // five kinds that are.
    let line = argv(&[
        "run",
        "--model",
        "tinycnn",
        "--inject-fault",
        "2:ledger-corrupt",
    ]);
    let err = cli::parse(&line).expect_err("ledger-corrupt");
    assert!(
        err.starts_with("--inject-fault: unknown fault kind `ledger-corrupt`"),
        "{err}"
    );
    for fault in g10_sim::InjectedFault::ALL {
        assert!(err.contains(fault.tag()), "{err}");
    }
}

#[test]
fn help_lists_every_flag() {
    let usage = cli::usage();
    for flag in FLAGS {
        assert!(usage.contains(flag.name), "{}", flag.name);
    }
    let line = argv(&["table2", "--no-such-flag", "--help"]);
    assert_eq!(
        cli::parse(&line).map(|_| ()),
        Err("unknown flag: --no-such-flag (try --help)".into())
    );
    assert!(matches!(
        cli::parse(&argv(&["table2", "-h", "--bogus"])),
        Ok(None)
    ));
}

/// Command words, known and unknown.
const WORDS: [&str; 14] = [
    "run", "multi", "serve", "submit", "cache", "gc", "bench", "snapshot", "compare", "all",
    "fig3", "table2", "lifetime", "nosuch",
];

/// Values every check must weigh, and flags no table row names.
const VALUES: [&str; 25] = [
    "",
    "-1",
    "256",
    "257",
    "1024",
    "1025",
    "65536",
    "65537",
    "nan",
    "inf",
    "1e999",
    "18446744073709551616",
    "18446744073709551615",
    "1048576",
    "1048577",
    "0",
    "1",
    "1.5",
    "3:step-panic",
    "x",
    "-",
    "--bogus",
    "-x",
    "--help",
    "-h",
];

fn token(pick: usize) -> String {
    let pick = pick % (FLAGS.len() + WORDS.len() + VALUES.len());
    match pick.checked_sub(FLAGS.len()) {
        None => FLAGS[pick].name.to_string(),
        Some(i) if i < WORDS.len() => WORDS[i].to_string(),
        Some(i) => VALUES[i - WORDS.len()].to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever the argv, `parse` answers without panicking: an error is
    /// one non-empty line, help is asked for only by `--help` or `-h`, and
    /// an accepted line gives only flags its command reads, with values
    /// their checks accept.
    #[test]
    fn any_argv_parses_or_fails_in_one_line(picks in vec(0usize..1 << 16, 0..12)) {
        let line: Vec<String> = picks.into_iter().map(token).collect();
        match cli::parse(&line) {
            Err(err) => {
                prop_assert!(!err.is_empty() && !err.contains('\n'), "{line:?}: {err:?}");
            }
            Ok(None) => {
                prop_assert!(line.iter().any(|arg| arg == "--help" || arg == "-h"));
            }
            Ok(Some(args)) => {
                for flag in FLAGS.iter().filter(|flag| args.text(flag.name).is_some()) {
                    prop_assert!(args.command.takes(flag.name), "{line:?}: {}", flag.name);
                    let checked = match flag.check {
                        Check::U64 => args.get::<u64>(flag.name).is_some(),
                        Check::UpTo(max) => args
                            .get::<u64>(flag.name)
                            .is_some_and(|n| (1..=max).contains(&n)),
                        Check::PositiveF64 => args
                            .get::<f64>(flag.name)
                            .is_some_and(|x| x.is_finite() && x > 0.0),
                        Check::Fault => args.get::<g10_sim::FaultPlan>(flag.name).is_some(),
                        Check::Switch | Check::Text(_) => true,
                    };
                    prop_assert!(checked, "{line:?}: {}", flag.name);
                }
            }
        }
    }
}
