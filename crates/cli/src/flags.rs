//! The one command-line parser every binary uses. A binary lists each
//! flag once, with the field it fills; the defaults are the fields'
//! values before parsing:
//!
//! ```
//! let (mut workers, mut batch) = (4usize, false);
//! locktune_cli::Flags::new()
//!     .value("--workers", &mut workers)
//!     .switch("--batch", &mut batch)
//!     .parse(["--workers", "8"].map(String::from))
//!     .unwrap();
//! assert_eq!((workers, batch), (8, false));
//! ```
//!
//! Flags are read left to right and a repeated flag keeps its last
//! value. A missing value, a value the field's type does not parse and
//! an unknown flag are usage errors. [`config!`](crate::config)
//! declares a binary's whole configuration as one table of fields,
//! defaults and flags.

use std::str::FromStr;

type Setter<'a> = Box<dyn FnMut(&str) -> Result<(), String> + 'a>;

enum Slot<'a> {
    Switch(&'a mut bool),
    Value(Setter<'a>),
    Help(&'static str),
}

/// A flag table under construction; [`Flags::parse`] fills it.
#[derive(Default)]
pub struct Flags<'a> {
    table: Vec<(&'static str, Slot<'a>)>,
}

fn parse<T: FromStr>(s: &str, name: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value {s:?} for {name}"))
}

impl<'a> Flags<'a> {
    /// An empty table.
    pub fn new() -> Self {
        Flags::default()
    }

    fn setter(
        mut self,
        name: &'static str,
        set: impl FnMut(&str) -> Result<(), String> + 'a,
    ) -> Self {
        self.table.push((name, Slot::Value(Box::new(set))));
        self
    }

    /// `name VALUE`, parsed at the field's own type, so an
    /// out-of-range number is a usage error, not a truncation.
    pub fn value<T: FromStr + 'a>(self, name: &'static str, field: &'a mut T) -> Self {
        self.setter(name, move |s| {
            *field = parse(s, name)?;
            Ok(())
        })
    }

    /// `name VALUE` for a field that is unset without the flag.
    pub fn opt<T: FromStr + 'a>(self, name: &'static str, field: &'a mut Option<T>) -> Self {
        self.setter(name, move |s| {
            *field = Some(parse(s, name)?);
            Ok(())
        })
    }

    /// `name A,B,...`: a comma-separated list; empty items are skipped.
    pub fn list<T: FromStr + 'a>(self, name: &'static str, field: &'a mut Vec<T>) -> Self {
        self.setter(name, move |s| {
            let items = s.split(',').filter(|item| !item.is_empty());
            *field = items
                .map(|item| parse(item, name))
                .collect::<Result<_, _>>()?;
            Ok(())
        })
    }

    /// `name WORD`, one of `choices`.
    pub fn choice<T: Copy + 'a>(
        self,
        name: &'static str,
        field: &'a mut T,
        choices: &'static [(&'static str, T)],
    ) -> Self {
        self.setter(name, move |s| {
            let Some(&(_, v)) = choices.iter().find(|(word, _)| *word == s) else {
                let words: Vec<_> = choices.iter().map(|(word, _)| *word).collect();
                let expected = words.join(" or ");
                return Err(format!("bad value {s:?} for {name} (expected {expected})"));
            };
            *field = v;
            Ok(())
        })
    }

    /// `name` alone sets `field`.
    pub fn switch(mut self, name: &'static str, field: &'a mut bool) -> Self {
        self.table.push((name, Slot::Switch(field)));
        self
    }

    /// `--help` and `-h` print `usage` and exit 0.
    pub fn help(mut self, usage: &'static str) -> Self {
        self.table.push(("--help", Slot::Help(usage)));
        self.table.push(("-h", Slot::Help(usage)));
        self
    }

    /// Read `args` (without the program name) into the table's fields.
    pub fn parse(mut self, args: impl IntoIterator<Item = String>) -> Result<(), String> {
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let Some((name, slot)) = self.table.iter_mut().find(|(name, _)| *name == flag) else {
                return Err(format!("unknown flag {flag}"));
            };
            match slot {
                Slot::Switch(field) => **field = true,
                Slot::Value(set) => set(&args
                    .next()
                    .ok_or_else(|| format!("missing value for {name}"))?)?,
                Slot::Help(usage) => {
                    println!("{usage}");
                    std::process::exit(0);
                }
            }
        }
        Ok(())
    }
}

/// Declares a configuration as one table, one line per flag:
/// `field: Type = default, kind "--flag" [extra];` with `kind` the
/// [`Flags`] method that reads it (`value`, `opt`, `list`, `switch`,
/// `choice`) and `extra` that method's further argument (`choice`'s
/// words). It generates the struct of `pub` fields, `Default` from the
/// defaults, and `flags`, the flag table over the fields.
#[macro_export]
macro_rules! config {
    (
        $(#[$meta:meta])* $name:ident {
            $($(#[$doc:meta])* $field:ident: $ty:ty = $default:expr,
                $kind:ident $flag:literal $($extra:expr)?;)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone)]
        pub struct $name {
            $($(#[$doc])* pub $field: $ty,)+
        }

        impl Default for $name {
            fn default() -> Self {
                $name { $($field: $default,)+ }
            }
        }

        impl $name {
            /// The flag table over this configuration's fields.
            pub fn flags(&mut self) -> $crate::Flags<'_> {
                $crate::Flags::new()$(.$kind($flag, &mut self.$field $(, $extra)?))+
            }
        }
    };
}

/// Print `bin: message` and exit with `code`.
pub fn fail(bin: &str, message: impl std::fmt::Display, code: i32) -> ! {
    eprintln!("{bin}: {message}");
    std::process::exit(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_in_order_and_errors_name_the_flag() {
        let (mut n, mut on, mut seed, mut nodes, mut pick) =
            (1u8, false, None::<u64>, Vec::<String>::new(), 'a');
        let mut parse = |flags: &[&str]| {
            Flags::new()
                .value("--n", &mut n)
                .switch("--on", &mut on)
                .opt("--seed", &mut seed)
                .list("--nodes", &mut nodes)
                .choice("--pick", &mut pick, &[("a", 'a'), ("b", 'b')])
                .parse(flags.iter().map(|f| f.to_string()))
        };
        assert_eq!(parse(&["--n"]).unwrap_err(), "missing value for --n");
        assert_eq!(
            parse(&["--n", "256"]).unwrap_err(),
            "bad value \"256\" for --n"
        );
        assert_eq!(parse(&["--m"]).unwrap_err(), "unknown flag --m");
        let err = parse(&["--pick", "c"]).unwrap_err();
        assert_eq!(err, "bad value \"c\" for --pick (expected a or b)");
        let ok = [
            "--n", "2", "--on", "--seed", "7", "--nodes", "x,,y", "--pick", "b", "--n", "3",
        ];
        parse(&ok).unwrap();
        assert_eq!((n, on, seed, pick), (3, true, Some(7), 'b'));
        assert_eq!(nodes, ["x", "y"]);
    }
}
