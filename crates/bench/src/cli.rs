//! The `paper` binary's argument parser: everything is validated up front,
//! so a typo fails before the first federation trains instead of silently
//! running something else.
//!
//! ```text
//! paper --list
//! paper <artefact> [--scale tiny|quick|small|full] [--methods a,b,c] [--datasets x,y]
//! ```

use fedlps_baselines::registry::baseline_names;
use fedlps_data::scenario::DatasetKind;

use crate::artefacts::{Artefact, Override, Request, ARTEFACTS};
use crate::scale::Scale;

/// What a command line asks for.
#[derive(Debug)]
pub enum Command {
    /// `paper --list`: print the artefact table.
    List,
    /// `paper <artefact> [flags]`: run one artefact.
    Run(&'static Artefact, Request),
}

/// Every method name `--methods` accepts: the baselines plus FedLPS.
pub fn method_names() -> Vec<&'static str> {
    let mut names = baseline_names();
    names.push("FedLPS");
    names
}

/// Resolves every comma-separated item of `value` through `lookup`, or
/// names the first unknown item next to the valid ones.
fn parse_list<T>(
    flag: &str,
    value: &str,
    valid: &[&str],
    lookup: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    value
        .split(',')
        .map(|item| {
            lookup(item.trim()).ok_or_else(|| {
                format!(
                    "unknown {flag} value '{}'; valid: {}",
                    item.trim(),
                    valid.join(", ")
                )
            })
        })
        .collect()
}

/// Parses the arguments after the program name (`--flag value` and
/// `--flag=value` are both accepted). `--methods` / `--datasets` are
/// rejected for an artefact that does not honour them (see
/// [`Artefact::overrides`]). The error is the message to print before
/// exiting with status 2.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let artefact_names: Vec<&str> = ARTEFACTS.iter().map(|a| a.name).collect();
    let usage = format!(
        "usage: paper --list | paper <artefact> [--scale {}] [--methods a,b] [--datasets x,y]\n\
         artefacts: {}",
        Scale::NAMES.join("|"),
        artefact_names.join(", ")
    );

    let mut artefact = None;
    let mut request = Request::at(Scale::Quick);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(flag) = arg.strip_prefix("--") else {
            if artefact.is_some() {
                return Err(format!("unexpected argument '{arg}'\n{usage}"));
            }
            artefact = Some(
                ARTEFACTS
                    .iter()
                    .find(|a| a.name == arg)
                    .ok_or_else(|| format!("unknown artefact '{arg}'\n{usage}"))?,
            );
            continue;
        };
        if flag == "list" {
            return Ok(Command::List);
        }
        let (flag, value) = match flag.split_once('=') {
            Some((flag, value)) => (flag, value),
            None => match args.next() {
                Some(value) => (flag, value.as_str()),
                None => return Err(format!("--{flag} needs a value\n{usage}")),
            },
        };
        match flag {
            "scale" => {
                request.scale = Scale::parse(value).ok_or_else(|| {
                    format!(
                        "unknown --scale value '{value}'; valid: {}",
                        Scale::NAMES.join(", ")
                    )
                })?;
            }
            "methods" => {
                let valid = method_names();
                request.methods = Some(parse_list("--methods", value, &valid, |name| {
                    valid
                        .iter()
                        .copied()
                        .find(|m| *m == name || (*m == "FedLPS" && name.eq_ignore_ascii_case(m)))
                })?);
            }
            "datasets" => {
                let kinds = DatasetKind::all();
                let valid: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
                request.datasets = Some(parse_list("--datasets", value, &valid, |name| {
                    kinds.into_iter().find(|k| k.name() == name)
                })?);
            }
            _ => return Err(format!("unknown flag '--{flag}'\n{usage}")),
        }
    }
    let Some(artefact) = artefact else {
        return Err(usage);
    };
    let given = [
        (Override::Methods, request.methods.is_some()),
        (Override::Datasets, request.datasets.is_some()),
    ];
    for (flag, _) in given.into_iter().filter(|&(_, given)| given) {
        if !artefact.overrides.contains(&flag) {
            let honouring: Vec<&str> = ARTEFACTS
                .iter()
                .filter(|a| a.overrides.contains(&flag))
                .map(|a| a.name)
                .collect();
            return Err(format!(
                "{} ignores {}; only {} accept it",
                artefact.name,
                flag.flag(),
                honouring.join(", ")
            ));
        }
    }
    Ok(Command::Run(artefact, request))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(words: &[&str]) -> Result<Command, String> {
        parse(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn both_flag_spellings_parse_into_the_request() {
        let Ok(Command::Run(artefact, request)) = parse_words(&[
            "table1",
            "--scale=small",
            "--methods",
            "FedAvg, fedlps",
            "--datasets=cifar10-like,mnist-like",
        ]) else {
            panic!("a valid command line must parse");
        };
        assert_eq!(artefact.name, "table1");
        assert_eq!(request.scale, Scale::Small);
        assert_eq!(request.methods, Some(vec!["FedAvg", "FedLPS"]));
        assert_eq!(
            request.datasets,
            Some(vec![DatasetKind::Cifar10Like, DatasetKind::MnistLike])
        );
        assert!(matches!(parse_words(&["--list"]), Ok(Command::List)));
        let Ok(Command::Run(_, defaults)) = parse_words(&["fig9_ratio_sweep"]) else {
            panic!("flags are optional");
        };
        assert_eq!(defaults.scale, Scale::Quick);
        assert!(defaults.methods.is_none() && defaults.datasets.is_none());
    }

    #[test]
    fn a_misspelt_scale_is_rejected_with_the_valid_values() {
        let err = parse_words(&["table1", "--scale", "ful"]).unwrap_err();
        assert!(err.contains("'ful'") && err.contains("tiny, quick, small, full"));
    }

    #[test]
    fn an_unknown_dataset_is_rejected_with_the_valid_values() {
        let err = parse_words(&["table1", "--datasets", "mnist-like,imagenet"]).unwrap_err();
        assert!(err.contains("'imagenet'") && err.contains("reddit-like"));
    }

    #[test]
    fn an_unknown_method_is_rejected_before_anything_runs() {
        let err = parse_words(&["table1", "--methods=FedAvg,FedSGD"]).unwrap_err();
        assert!(err.contains("'FedSGD'") && err.contains("Per-FedAvg") && err.contains("FedLPS"));
    }

    #[test]
    fn an_override_the_artefact_ignores_is_rejected_with_the_artefacts_that_accept_it() {
        for words in [
            &["fig9_ratio_sweep", "--methods", "FedLPS"][..],
            &["--datasets=mnist-like", "table2_ablation"],
        ] {
            let err = parse_words(words).unwrap_err();
            let flag = if words.contains(&"--methods") {
                "--methods"
            } else {
                "--datasets"
            };
            assert!(err.contains(flag), "{err}");
            assert!(err.contains("table1, fig3_4_convergence"), "{err}");
        }
        for artefact in ARTEFACTS {
            let honours = |flag| artefact.overrides.contains(&flag);
            let with_methods = parse_words(&[artefact.name, "--methods", "FedLPS"]);
            assert_eq!(
                with_methods.is_ok(),
                honours(Override::Methods),
                "{}",
                artefact.name
            );
            let with_datasets = parse_words(&[artefact.name, "--datasets", "mnist-like"]);
            assert_eq!(
                with_datasets.is_ok(),
                honours(Override::Datasets),
                "{}",
                artefact.name
            );
        }
    }

    #[test]
    fn unknown_artefacts_flags_and_missing_values_are_rejected() {
        let err = parse_words(&["table3"]).unwrap_err();
        assert!(err.contains("'table3'") && err.contains("fig10_availability"));
        let err = parse_words(&["table1", "--rounds", "5"]).unwrap_err();
        assert!(err.contains("'--rounds'"));
        assert!(parse_words(&["table1", "--scale"]).is_err());
        assert!(parse_words(&["table1", "table1"]).is_err());
        assert!(parse_words(&[]).is_err());
    }
}
