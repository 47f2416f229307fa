//! Every figure and table of the Euphrates paper, in paper order, from
//! one evaluation run that evaluates each cell of the grid once (see
//! `euphrates_bench::paper`). `EUPHRATES_SCALE` sets the dataset scale.

use euphrates_bench::paper::{PaperRun, FIGURES};
use euphrates_bench::DEFAULT_SCALE;
use euphrates_core::prelude::*;

fn main() {
    let scale = DatasetScale::from_env(DEFAULT_SCALE);
    let run = PaperRun::evaluate(scale, &FIGURES);
    println!(
        "dataset scale: {:.2} (set EUPHRATES_SCALE=1.0 for paper-sized runs); \
         {} cells in {} scenarios",
        scale.sequence_fraction,
        run.cells(),
        run.scenarios()
    );
    for figure in &FIGURES {
        figure.print(&run);
    }
}
