//! `spexp` — the SwitchPointer experiment harness.
//!
//! One subcommand per figure of the paper's evaluation (Figs. 2–12, the
//! three ablations and the motivation study), and nothing else. Each
//! prints the series the paper plots (tab-separated, one row per x value)
//! plus shape notes, and can dump machine-readable JSON. The planes built
//! beyond the paper keep their acceptance bars in the root tests.
//!
//! ```text
//! spexp <fig2a|fig2b|fig3|fig4|fig7|fig8|fig9|fig10|fig11|fig12|
//!        ablation-drr|ablation-hierarchy|ablation-dctcp|motivation|all>
//!       [--json <path>] [--quick]
//! ```
//!
//! `--quick` shrinks the Fig. 9 measurement loop (CI-friendly).

#![forbid(unsafe_code)]

mod ablations;
mod common;
mod fig10;
mod fig11;
mod fig12;
mod fig2;
mod fig3;
mod fig4;
mod fig7;
mod fig8;
mod fig9;
mod motivation;

use common::FigureData;

fn run_one(name: &str, quick: bool) -> Vec<FigureData> {
    match name {
        "fig2a" => fig2::fig2a(),
        "fig2b" => fig2::fig2b(),
        "fig3" => fig3::fig3(),
        "fig4" => fig4::fig4(),
        "fig7" => fig7::fig7(),
        "fig8" => fig8::fig8(),
        "fig9" => {
            if quick {
                fig9::fig9_with(200_000)
            } else {
                fig9::fig9()
            }
        }
        "fig10" => fig10::fig10(),
        "fig11" => fig11::fig11(),
        "fig12" => fig12::fig12(),
        "ablation-drr" => ablations::ablation_drr(),
        "ablation-hierarchy" => ablations::ablation_hierarchy(),
        "ablation-dctcp" => ablations::ablation_dctcp(),
        "motivation" => motivation::motivation(),
        other => {
            eprintln!("unknown figure: {other}");
            std::process::exit(2);
        }
    }
}

const ALL: [&str; 14] = [
    "fig2a",
    "fig2b",
    "fig3",
    "fig4",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ablation-drr",
    "ablation-hierarchy",
    "ablation-dctcp",
    "motivation",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: spexp <figure|all> [--json <path>] [--quick]");
        eprintln!("figures: {}", ALL.join(", "));
        std::process::exit(2);
    }
    let mut target: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut quick = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_path = Some(it.next().expect("--json needs a path")),
            "--quick" => quick = true,
            name => target = Some(name.to_string()),
        }
    }
    let target = target.unwrap_or_else(|| "all".into());

    let mut figures = Vec::new();
    if target == "all" {
        for name in ALL {
            eprintln!(">>> running {name}");
            figures.extend(run_one(name, quick));
        }
    } else {
        figures.extend(run_one(&target, quick));
    }

    for f in &figures {
        f.print();
    }
    if let Some(path) = json_path {
        common::write_json(&figures, &path).expect("write json");
        eprintln!("wrote {path}");
    }
}
