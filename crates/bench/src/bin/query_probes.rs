//! QUERY: partial factorization via membership probes — the §I workload
//! where "only a subset of class and subclass items are of interest".
//! A [`SceneQuery`] answers "does this scene contain item X in class c?"
//! with one dot product; this binary measures its true/false-positive
//! rates against scene size, versus the full-factorization alternative.

use factorhd_bench::{quick_flag, Table};
use factorhd_core::{Encoder, SceneQuery, TaxonomyBuilder};

fn main() {
    let trials = if quick_flag() { 32 } else { 200 };
    let f = 3usize;
    let m = 16usize;
    let d = 4096usize;

    let taxonomy = TaxonomyBuilder::new(d)
        .seed(501)
        .uniform_classes(f, &[m])
        .build()
        .expect("valid taxonomy");
    let encoder = Encoder::new(&taxonomy);

    let mut table = Table::new(
        "Membership probes (F = 3, M = 16, D = 4096): 1 dot product per query",
        &["N objects", "TPR", "FPR", "mean margin"],
    );

    for n in [1usize, 2, 3, 4] {
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut margin = 0.0f64;
        for t in 0..trials {
            let mut rng = hdc::rng_from_seed(hdc::derive_seed(&[502, n as u64, t as u64]));
            let scene = taxonomy.sample_scene(n, true, &mut rng);
            let hv = encoder.encode_scene(&scene).expect("encodable");

            // Positive probe: class 0 of the first object.
            let present_path = scene.objects()[0]
                .assignment(0)
                .expect("sample_scene fills every class")
                .clone();
            let positive = SceneQuery::new(&taxonomy)
                .with_item(0, present_path.clone())
                .expect("valid path");
            let answer = positive.evaluate(&hv).expect("well-formed query");
            if answer.present {
                tp += 1;
            }
            margin += answer.evidence;

            // Negative probe: an item no object carries in class 0.
            let used: Vec<u16> = scene
                .objects()
                .iter()
                .filter_map(|o| o.assignment(0).map(|p| p.indices()[0]))
                .collect();
            let absent = (0..m as u16)
                .find(|i| !used.contains(i))
                .expect("M > N leaves a free item");
            let negative = SceneQuery::new(&taxonomy)
                .with_item(0, factorhd_core::ItemPath::top(absent))
                .expect("valid path");
            if negative.evaluate(&hv).expect("well-formed query").present {
                fp += 1;
            }
        }
        table.row(&[
            n.to_string(),
            format!("{:.3}", tp as f64 / trials.max(1) as f64),
            format!("{:.3}", fp as f64 / trials.max(1) as f64),
            format!("{:.3}", margin / trials.max(1) as f64),
        ]);
    }
    table.print();
    println!();
    println!(
        "cost: 1 similarity per probe vs {} for a full Rep-1 factorization",
        f * (m + 1)
    );
}
