//! `paper [name]…` prints each named table or figure of the DP-starJ
//! evaluation (paper §6), or all of them when given no name.

use starj_bench::figures::FIGURES;
use starj_bench::Knobs;

fn main() {
    let mut run = Vec::new();
    for name in std::env::args().skip(1) {
        match FIGURES.iter().find(|(n, _)| *n == name) {
            Some(figure) => run.push(figure),
            None => {
                eprintln!("unknown figure `{name}`; known: {}", FIGURES.map(|(n, _)| n).join(" "));
                std::process::exit(2);
            }
        }
    }
    if run.is_empty() {
        run = FIGURES.iter().collect();
    }
    let knobs = Knobs::from_env();
    for (i, (_, figure)) in run.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        figure(&knobs);
    }
}
