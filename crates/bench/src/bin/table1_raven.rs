//! TAB1: FactorHD factorization accuracy on RAVEN panels, per
//! configuration and hypervector dimension (with the simulated neural
//! front-end extracting the attributes).
//!
//! Expected shape (paper): ≥90% for most configurations at `D = 1000`;
//! graceful degradation at reduced dimensionality; dense multi-object
//! grids (3x3Grid) are the hardest.

use factorhd_bench::{quick_flag, Table};
use factorhd_neural::datasets::raven::RavenConfig;
use factorhd_neural::{RavenPipeline, RavenPipelineConfig};

fn main() {
    let scenes = if quick_flag() { 40 } else { 200 };
    let dims = [250usize, 500, 1000];

    let mut headers: Vec<String> = vec!["config".into()];
    headers.extend(dims.iter().map(|d| format!("D={d}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Table I: RAVEN factorization accuracy (exact panel match)",
        &header_refs,
    );

    for config in RavenConfig::ALL {
        let mut row = vec![config.name().to_string()];
        for &dim in &dims {
            let pipeline = RavenPipeline::new(
                config,
                RavenPipelineConfig {
                    dim,
                    ..RavenPipelineConfig::default()
                },
            )
            .expect("valid RAVEN pipeline");
            let acc = pipeline.evaluate(scenes, 81).expect("evaluation runs");
            row.push(format!("{acc:.3}"));
        }
        table.row(&row);
    }
    table.print();
    println!();
    println!(
        "shape check: accuracy rises with D; single/two-object configurations \
         (Center, L-R, U-D, O-IC) ≥90% at D = 1000; dense grids degrade."
    );
}
