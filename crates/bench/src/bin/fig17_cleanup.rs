//! Regenerates Figure 17 of the paper. Pass `--full` for the larger run and
//! `--json PATH` to also write the rows as machine-readable JSON (uploaded by
//! the CI smoke-bench job as `BENCH_fig17_smoke.json`).
fn main() {
    // Validate the argument list before the measurement runs.
    let args = morphstream_bench::FigArgs::from_env(&["--json"]);
    let scale = args.scale;
    let rows = morphstream_bench::figs::fig17::run(scale);
    if let Some(path) = args.json_path() {
        morphstream_bench::figs::fig17::write_json(&path, scale, &rows)
            .expect("failed to write bench JSON");
        println!("\nwrote {}", path.display());
    }
}
