//! The `experiments` command line, checked whole before any work starts.
//!
//! [`FLAGS`] declares every flag once: its name, how its value is checked,
//! the noun of its `<flag> needs <noun> argument` error, and the commands
//! that read it.  [`parse`] refuses an unknown flag, a missing or malformed
//! value, an unknown command, words after a complete command, and a flag
//! the chosen command does not read, each with a one-line message; the
//! binary only dispatches.  [`usage`] builds `--help` from the same table.

use crate::experiments::FIGURES;
use crate::serve::protocol::MAX_MIB;
use g10_dnn::models::MAX_BATCH;
use g10_sim::FaultPlan;
use std::str::FromStr;

/// An `experiments` command: `Figure` is one table or figure of the
/// evaluation (`table1` … `fig19`, `lifetime`) or `all` of them; the others
/// are `run`, `multi`, `serve`, `submit`, `cache gc`, `bench snapshot` and
/// `bench compare <baseline.json> <fresh.json>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[rustfmt::skip]
pub enum Command { Figure, Run, Multi, Serve, Submit, CacheGc, BenchSnapshot, BenchCompare }

use Command::*;

impl Command {
    /// Every command, in `--help` order.
    #[rustfmt::skip]
    pub const ALL: [Command; 8] =
        [Figure, Run, Multi, Serve, Submit, CacheGc, BenchSnapshot, BenchCompare];

    /// The command as `--help` shows it.
    fn synopsis(self) -> &'static str {
        match self {
            Figure => "<figure|all>",
            Run => "run",
            Multi => "multi",
            Serve => "serve",
            Submit => "submit",
            CacheGc => "cache gc",
            BenchSnapshot => "bench snapshot",
            BenchCompare => "bench compare <baseline.json> <fresh.json>",
        }
    }

    /// Whether the command reads `flag`.
    pub fn takes(self, flag: &str) -> bool {
        row(flag).is_some_and(|row| row.commands.contains(&self))
    }
}

/// The most tenants `multi --tenants` builds and the most jobs one
/// `--jobs` list or wire `jobs` array names.  Each tenant builds its own
/// workload and replays solo as well as in the mix, so a mix costs memory
/// and time in proportion to its size; 1,024 is far above the three-job
/// default and keeps a huge count from aborting on a failed allocation.
pub const MAX_TENANTS: u64 = 1 << 10;

/// The most `serve --workers`.  Each worker is an OS thread that replays
/// one cell at a time, so workers beyond the core count only queue on the
/// CPU; 256 covers any machine this runs on and keeps a huge count from
/// asking the OS for more threads than it can start.
pub const MAX_WORKERS: u64 = 1 << 8;

/// The most `serve --queue-depth`.  A queued job holds its client's open
/// connection until a worker answers, so a depth beyond the process's
/// file-descriptor budget could never fill; 65,536 is above common
/// descriptor limits.
pub const MAX_QUEUE_DEPTH: u64 = 1 << 16;

/// How a flag's value is checked: a `Switch` takes none; `Text` takes any
/// text, which `--help` shows as the given placeholder; `U64` a `u64`,
/// `UpTo(max)` an integer from 1 to `max`, `PositiveF64` a finite `f64`
/// above zero and `Fault` a [`FaultPlan`] (`<step>:<kind>`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    Switch,
    Text(&'static str),
    U64,
    UpTo(u64),
    PositiveF64,
    Fault,
}

use Check::*;

/// One row of [`FLAGS`]: the flag as typed, how its value is checked, the
/// noun of its `<flag> needs <noun> argument` error, and the commands that
/// read it.
#[derive(Debug)]
pub struct Flag {
    pub name: &'static str,
    pub check: Check,
    pub noun: &'static str,
    pub commands: &'static [Command],
}

#[rustfmt::skip]
const fn flag(name: &'static str, check: Check, noun: &'static str, commands: &'static [Command]) -> Flag {
    Flag { name, check, noun, commands }
}

/// Every flag of `experiments`.  The store is installed before dispatch,
/// so `--cache-dir` and `--no-cache` are read by every command.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    flag("--out",            Text("DIR"),       "a directory",              &[Figure, Run, Multi, BenchSnapshot]),
    flag("--cache-dir",      Text("DIR"),       "a directory",              &Command::ALL),
    flag("--no-cache",       Switch,            "",                         &Command::ALL),
    flag("--model",          Text("NAME"),      "a model name",             &[Run, Submit]),
    flag("--batch",          UpTo(MAX_BATCH),   "a 1-to-1048576 integer",   &[Run, Submit]),
    flag("--policy",         Text("NAME,..."),  "a policy-name",            &[Run, Multi, Submit]),
    flag("--gpu-mib",        UpTo(MAX_MIB),     "a 1-to-17592186044415 integer", &[Run, Multi, Submit]),
    flag("--inject-fault",   Fault,             "a <step>:<kind>",          &[Run, Submit]),
    flag("--on-fault",       Text("fail|NAME"), "a fail-or-policy-name",    &[Run]),
    flag("--deadline-ms",    U64,               "an integer millisecond",   &[Run, Submit]),
    flag("--tenants",        UpTo(MAX_TENANTS), "a 1-to-1024 integer",      &[Multi]),
    flag("--stress",         Switch,            "",                         &[Multi]),
    flag("--jobs",           Text("JOB,..."),   "a JOB,... list",           &[Multi, Submit]),
    flag("--addr",           Text("HOST:PORT"), "a HOST:PORT",              &[Serve, Submit]),
    flag("--workers",        UpTo(MAX_WORKERS), "a 1-to-256 integer",       &[Serve]),
    flag("--queue-depth",    UpTo(MAX_QUEUE_DEPTH), "a 1-to-65536 integer", &[Serve]),
    flag("--queue-mib",      UpTo(MAX_MIB),     "a 1-to-17592186044415 integer", &[Serve]),
    flag("--drain-ms",       U64,               "an integer millisecond",   &[Serve]),
    flag("--health",         Switch,            "",                         &[Submit]),
    flag("--stats",          Switch,            "",                         &[Submit]),
    flag("--shutdown",       Switch,            "",                         &[Submit]),
    flag("--max-mib",        U64,               "an integer MiB",           &[CacheGc]),
    flag("--max-wall-ratio", PositiveF64,       "a finite positive number", &[BenchCompare]),
];

fn row(name: &str) -> Option<&'static Flag> {
    FLAGS.iter().find(|row| row.name == name)
}

impl Flag {
    /// Takes this flag's value from the rest of argv and checks it (a
    /// switch takes none and reads as empty text).
    fn take(&self, rest: &mut std::slice::Iter<'_, String>) -> Result<String, String> {
        if self.check == Switch {
            return Ok(String::new());
        }
        let needs = || format!("{} needs {} argument", self.name, self.noun);
        let text = rest.next().ok_or_else(needs)?;
        let fits = match self.check {
            Switch | Text(_) => true,
            U64 => text.parse::<u64>().is_ok(),
            UpTo(max) => text.parse::<u64>().is_ok_and(|n| (1..=max).contains(&n)),
            PositiveF64 => text.parse::<f64>().is_ok_and(|x| x.is_finite() && x > 0.0),
            Fault => match text.parse::<FaultPlan>() {
                Ok(_) => true,
                Err(err) => return Err(format!("{}: {err}", self.name)),
            },
        };
        fits.then(|| text.clone()).ok_or_else(needs)
    }

    /// The flag as `--help` shows it, e.g. `[--gpu-mib N]`, or with its
    /// bound, e.g. `[--tenants 1..1024]`.
    fn synopsis(&self) -> String {
        let placeholder = match self.check {
            Switch => return format!("[{}]", self.name),
            Text(placeholder) => placeholder,
            U64 => "N",
            UpTo(max) => return format!("[{} 1..{max}]", self.name),
            PositiveF64 => "X",
            Fault => "STEP:KIND",
        };
        format!("[{} {placeholder}]", self.name)
    }
}

/// A checked command line.
#[derive(Debug)]
pub struct Args {
    /// The command its words name.
    pub command: Command,
    /// The words that are not flags or flag values, command words first.
    pub words: Vec<String>,
    /// Each flag given, with its checked value text, in argv order.
    values: Vec<(&'static str, String)>,
}

impl Args {
    /// The last value given for `flag` (empty text for a switch).
    pub fn text(&self, flag: &str) -> Option<&str> {
        debug_assert!(row(flag).is_some(), "{flag} is not in cli::FLAGS");
        let given = self.values.iter().rev().find(|(name, _)| *name == flag);
        given.map(|(_, text)| text.as_str())
    }

    /// Whether `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.text(flag).is_some()
    }

    /// The value of `flag` as a `T`; [`parse`] has already checked it.
    pub fn get<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.text(flag)?.parse().ok()
    }
}

/// Checks a whole command line (without the program name): `Ok(None)`
/// asks for [`usage`].  Flags are checked in argv order, so the first bad
/// one is the one reported; a `--help` reached before any error wins.
pub fn parse(argv: &[String]) -> Result<Option<Args>, String> {
    let mut words = Vec::new();
    let mut values = Vec::new();
    let mut rest = argv.iter();
    while let Some(arg) = rest.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        }
        if !arg.starts_with('-') {
            words.push(arg.clone());
            continue;
        }
        let flag = row(arg).ok_or_else(|| format!("unknown flag: {arg} (try --help)"))?;
        values.push((flag.name, flag.take(&mut rest)?));
    }
    let (command, named) = command(&words)?;
    if let Some((flag, _)) = values.iter().find(|(flag, _)| !command.takes(flag)) {
        return Err(format!("{} does not take {flag}", words[..named].join(" ")));
    }
    Ok(Some(Args {
        command,
        words,
        values,
    }))
}

/// The command `words` name and how many words name it, refusing unknown
/// commands and extra words.
fn command(words: &[String]) -> Result<(Command, usize), String> {
    let words: Vec<&str> = words.iter().map(String::as_str).collect();
    let (command, named, count) = match words[..] {
        [] => return Err("no command given (try --help)".to_string()),
        ["bench", "compare", _, _] => (BenchCompare, 2, 4),
        ["bench", "compare", ..] => {
            return Err("bench compare needs exactly <baseline.json> <fresh.json>".to_string())
        }
        ["bench", "snapshot", ..] => (BenchSnapshot, 2, 2),
        ["cache", "gc", ..] => (CacheGc, 2, 2),
        ["bench", ..] => return Err("bench needs a subcommand: snapshot | compare".to_string()),
        ["cache", ..] => return Err("cache needs a subcommand: gc".to_string()),
        ["run", ..] => (Run, 1, 1),
        ["multi", ..] => (Multi, 1, 1),
        ["serve", ..] => (Serve, 1, 1),
        ["submit", ..] => (Submit, 1, 1),
        [name, ..] if name == "all" || FIGURES.contains(&name) => (Figure, 1, 1),
        [name, ..] => return Err(format!("unknown command: {name}")),
    };
    if words.len() > count {
        let (command, extra) = words.split_at(count);
        let (command, extra) = (command.join(" "), extra.join(" "));
        return Err(format!("{command} takes no arguments, got: {extra}"));
    }
    Ok((command, named))
}

/// The `--help` text: each command with the flags [`FLAGS`] gives it.
pub fn usage() -> String {
    let is_global = |flag: &&Flag| flag.commands.len() == Command::ALL.len();
    let (global, own): (Vec<&Flag>, Vec<&Flag>) = FLAGS.iter().partition(is_global);
    let mut text = String::from("usage: experiments <command> [flags]\n\n");
    for command in Command::ALL {
        let mut line = format!("  experiments {}", command.synopsis());
        for flag in own.iter().filter(|flag| flag.commands.contains(&command)) {
            let part = flag.synopsis();
            if line.len() + part.len() >= 78 {
                text += &line;
                line = "\n     ".to_string();
            }
            line += " ";
            line += &part;
        }
        text += &line;
        text += "\n";
    }
    let global: Vec<String> = global.iter().map(|flag| flag.synopsis()).collect();
    text + &format!(
        "\nEvery command also takes {} (or reads\n\
         G10_CACHE_DIR=DIR) and refuses any other flag.  <figure> is one of\n  {}.\n\
         run needs --model; submit needs --addr and --model, --jobs, --health,\n\
         --stats or --shutdown; cache gc needs --max-mib.  A JOB is\n\
         model[:batch[:priority[:quota_mib[:arrival_us]]]], and --jobs names at\n\
         most {MAX_TENANTS}; a batch, given by --batch or in a JOB, is 1 to {MAX_BATCH}.\n\
         --policy takes ideal, base-uvm, deepum+, flashneuron, g10-gds, g10-host,\n\
         g10, tensile or any policy registered via g10_sim::register_policy.",
        global.join(" "),
        FIGURES.join(" ")
    )
}
