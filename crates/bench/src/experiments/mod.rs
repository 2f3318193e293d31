//! The paper's tables and figures, each listed as its rows.
//!
//! A maker (`fig01` … `ablation_crash`) takes `scale` (1 = quick CI-sized
//! run, larger = closer to the paper's operation counts) and returns a
//! [`Figure`]: title, key and value columns, and per row its key plus the
//! cell closures that produce its numbers. It runs and prints nothing.
//! [`Figure::run`] alone enqueues the cells — one independent `(config,
//! workload, seed)` simulation each — on an [`ExperimentGrid`] and puts
//! every result back in the row that listed it, in order, so `--jobs 1`
//! and `--jobs N` render byte-identical text; the numbers can then be read
//! by row key and column.
//!
//! To add a row: one more `fig.row(&[key…], move || vec![…])` in the maker.
//! To add a figure: a maker in one of the modules below and a line in
//! [`SELECTORS`]; regenerate `tests/golden/figures_all.txt`.

mod ablation;
mod apps;
pub mod cells;
mod device;
mod journal;

pub use ablation::{ablation_crash, ablation_engines};
pub use apps::{fig14, fig15, fig16};
pub use device::{fig01, fig09, fig10, fig12};
pub use journal::{fig08, fig11, fig13, fig17, table1};

use crate::{render_table, ExperimentGrid};

/// A table/figure maker: takes `--scale` (`figcrash`: `--seeds`), lists rows.
pub type Maker = fn(u64) -> Figure;

/// Every selector the `figures` binary accepts (`--fig N` is `figN`,
/// `--table N` is `tableN`) with its maker, in `--all` order.
pub const SELECTORS: &[(&str, Maker)] = &[
    ("fig1", fig01),
    ("fig8", fig08),
    ("fig9", fig09),
    ("fig10", fig10),
    ("table1", table1),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("figengines", ablation_engines),
    ("figcrash", ablation_crash),
];

/// One unit of grid work: builds its own stack, returns plain numbers.
type CellFn = Box<dyn FnOnce() -> Vec<f64> + Send>;

fn cell(run: impl FnOnce() -> Vec<f64> + Send + 'static) -> CellFn {
    Box::new(run)
}

/// A value column: its header and how its numbers print.
struct Col {
    name: &'static str,
    decimals: usize,
    suffix: String,
}

fn col(name: &'static str, decimals: usize) -> Col {
    Col {
        name,
        decimals,
        suffix: String::new(),
    }
}

impl Col {
    /// Text printed right after each number (`%`, `/20`).
    fn suffix(mut self, suffix: impl Into<String>) -> Col {
        self.suffix = suffix.into();
        self
    }
}

struct Row {
    /// One string per key column.
    key: Vec<String>,
    /// Taken by [`Figure::run`].
    cells: Vec<CellFn>,
    /// Empty until [`Figure::run`]; then one number per value column.
    values: Vec<f64>,
}

/// A table or figure: what to print around the rows, and per row the
/// cells that produce its numbers and, once run, the numbers.
pub struct Figure {
    title: &'static str,
    keys: &'static [&'static str],
    cols: Vec<Col>,
    rows: Vec<Row>,
    /// Turns a row's cell outputs, concatenated in cell order, into its
    /// printed values (a ratio of two cells, a fold over seeds).
    derive: fn(&[f64]) -> Vec<f64>,
    render: fn(&Figure) -> String,
}

impl Figure {
    /// A figure with no rows yet, printed as a table of its cells' outputs.
    fn new(title: &'static str, keys: &'static [&'static str], cols: Vec<Col>) -> Figure {
        Figure {
            title,
            keys,
            cols,
            rows: Vec::new(),
            derive: <[f64]>::to_vec,
            render: Figure::render_table,
        }
    }

    /// Appends a row of one cell: a string per key column, and the closure
    /// whose output is the row's numbers.
    fn row(&mut self, key: &[&str], run: impl FnOnce() -> Vec<f64> + Send + 'static) {
        self.row_of(key, [cell(run)]);
    }

    /// Appends a row whose numbers are the outputs of `cells`, in order.
    fn row_of(&mut self, key: &[&str], cells: impl IntoIterator<Item = CellFn>) {
        let key = key.iter().map(|k| k.to_string()).collect();
        let (cells, values) = (cells.into_iter().collect(), Vec::new());
        self.rows.push(Row { key, cells, values });
    }

    /// Runs every cell on the worker pool and fills in the rows' numbers.
    /// Each result travels with its row's index, so a number cannot land
    /// in another row. A panicking cell is reported as `name/key/cell`.
    pub fn run(mut self, name: &str) -> Figure {
        let mut grid = ExperimentGrid::new();
        for (r, row) in self.rows.iter_mut().enumerate() {
            for (c, cell) in row.cells.drain(..).enumerate() {
                let label = format!("{name}/{}/{c}", row.key.join("/"));
                grid.push(label, move || (r, cell()));
            }
        }
        for (r, values) in grid.run() {
            self.rows[r].values.extend(values);
        }
        for row in &mut self.rows {
            row.values = (self.derive)(&row.values);
        }
        self
    }

    /// Every row's key and its number in value column `col`, in row order
    /// (nothing before [`Figure::run`], or for a column that is not there).
    pub fn column<'a>(&'a self, col: &str) -> impl Iterator<Item = (&'a [String], f64)> {
        let at = self.cols.iter().position(|c| c.name == col);
        self.rows
            .iter()
            .filter_map(move |row| Some((row.key.as_slice(), *row.values.get(at?)?)))
    }

    /// The number at row `key` (one string per key column), column `col`.
    pub fn value(&self, key: &[&str], col: &str) -> Option<f64> {
        self.column(col).find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The text the `figures` binary prints for this figure.
    pub fn render(&self) -> String {
        (self.render)(self)
    }

    fn render_table(&self) -> String {
        let col_names = self.cols.iter().map(|c| c.name);
        let header: Vec<&str> = self.keys.iter().copied().chain(col_names).collect();
        let text = |(c, v): (&Col, &f64)| format!("{v:.*}{}", c.decimals, c.suffix);
        let line = |row: &Row| {
            let numbers = self.cols.iter().zip(&row.values).map(text);
            row.key.iter().cloned().chain(numbers).collect()
        };
        let rows: Vec<Vec<String>> = self.rows.iter().map(line).collect();
        render_table(self.title, &header, &rows)
    }
}

/// Runs the figure registered under `selector`; `None` for an unknown one.
pub fn run(selector: &str, scale: u64, crash_seeds: u64) -> Option<Figure> {
    let &(name, make) = SELECTORS.iter().find(|(name, _)| *name == selector)?;
    let arg = if name == "figcrash" {
        crash_seeds
    } else {
        scale
    };
    Some(make(arg).run(name))
}

/// The stdout of `figures` for the selectors in `wanted` (`"all"` selects
/// every one), piece by piece as each figure finishes: the banner, then
/// each selected figure's text in [`SELECTORS`] order, named by selector.
pub fn render(
    wanted: &[String],
    scale: u64,
    crash_seeds: u64,
) -> impl Iterator<Item = (&'static str, String)> + '_ {
    let banner = format!("Barrier-Enabled IO Stack — experiment harness (scale {scale})\n");
    let all = wanted.iter().any(|w| w == "all");
    let blocks = SELECTORS
        .iter()
        .filter(move |(name, _)| all || wanted.iter().any(|w| w == name))
        .filter_map(move |(name, _)| Some((*name, run(name, scale, crash_seeds)?.render())));
    std::iter::once(("banner", banner)).chain(blocks)
}
