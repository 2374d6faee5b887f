//! Flag parsing for the bench binaries: a bad flag, a missing value or an
//! unparsable one prints the usage and exits 2; `--help` prints it and
//! exits 0.

use bhut_core::balance::Scheme;
use std::fmt::Display;
use std::process::exit;
use std::str::FromStr;

/// The command line after the program name, read one flag at a time.
pub struct Cli {
    usage: String,
    args: std::iter::Skip<std::env::Args>,
}

impl Cli {
    /// The process's own arguments, with the usage text to print.
    pub fn from_env(usage: impl Into<String>) -> Self {
        Cli { usage: usage.into(), args: std::env::args().skip(1) }
    }

    /// The next flag; `--help` / `-h` exit 0 here.
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.args.next()?;
        if flag == "--help" || flag == "-h" {
            println!("{}", self.usage);
            exit(0);
        }
        Some(flag)
    }

    /// The value after `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        match self.args.next() {
            Some(v) => v,
            None => self.fail(format!("missing value for {flag}")),
        }
    }

    /// The value after `flag`, parsed.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> T {
        let v = self.value(flag);
        v.parse().unwrap_or_else(|_| self.fail(format!("bad value for {flag}: {v:?}")))
    }

    /// The value after `flag` as a scheme list: `spsa`, `spda`, `dpda` or
    /// `all`.
    pub fn schemes(&mut self, flag: &str) -> Vec<Scheme> {
        match self.value(flag).as_str() {
            "all" => vec![Scheme::Spsa, Scheme::Spda, Scheme::Dpda],
            "spsa" => vec![Scheme::Spsa],
            "spda" => vec![Scheme::Spda],
            "dpda" => vec![Scheme::Dpda],
            other => self.fail(format!("unknown scheme {other:?} (want spsa|spda|dpda|all)")),
        }
    }

    /// Refuse the command line: `msg`, then the usage, exit 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        eprintln!("{msg}\n{}", self.usage);
        exit(2)
    }
}
