//! Batched serving with a persisted model artifact: build a taxonomy,
//! save it as `.fhd`, load it back into a `FactorEngine`, and serve a
//! mixed batch of typed ops through the planner.
//!
//! ```sh
//! cargo run --release --example serve_batch
//! ```

use factorhd::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the model: 3 classes, one with a subclass hierarchy.
    let taxonomy = TaxonomyBuilder::new(4096)
        .seed(2025)
        .class("animal", &[16, 4])
        .class("color", &[16])
        .class("size", &[16])
        .build()?;
    let encoder = Encoder::new(&taxonomy);

    // 2. Prepare a mixed typed-op batch before handing the model over.
    //    Heterogeneous batches travel as `AnyOp`; the planner groups them
    //    by op kind so same-shape work scans the packed shards
    //    contiguously.
    let mut rng = hdc::rng_from_seed(7);
    let mut ops = Vec::new();
    let mut expected = Vec::new();
    for i in 0..12 {
        let object = taxonomy.sample_object(&mut rng);
        if i % 4 == 3 {
            let scene = taxonomy.sample_scene(2, true, &mut rng);
            ops.push(AnyOp::Rep3(FactorizeRep3 {
                scene: encoder.encode_scene(&scene)?,
            }));
            expected.push(format!("scene with {} objects", scene.len()));
        } else {
            let hv = encoder.encode_scene(&Scene::single(object.clone()))?;
            ops.push(AnyOp::Rep2(FactorizeRep2 { scene: hv }));
            expected.push(object.to_string());
        }
    }

    // 3. Persist the model as a `.fhd` artifact and load it back — the
    //    restored engine serves bit-identically to the in-memory one.
    let engine = FactorEngine::new(taxonomy, EngineConfig::default())?;
    let path = std::env::temp_dir().join("serve_batch_example.fhd");
    engine.save(&path)?;
    let restored = FactorEngine::load(&path, EngineConfig::default())?;
    println!(
        "saved + loaded model artifact: {} ({} bytes)\n",
        path.display(),
        std::fs::metadata(&path)?.len()
    );

    // 4. Serve the batch across the worker pool.
    let outputs = restored.run_mixed(&ops);
    for (i, (output, expectation)) in outputs.into_iter().zip(&expected).enumerate() {
        match output? {
            AnyOutput::Rep2(decoded) => {
                let ok = decoded.object().to_string() == *expectation;
                println!(
                    "op {i:>2}: single  {} (confidence {:.3}){}",
                    decoded.object(),
                    decoded.confidence(),
                    if ok { "" } else { "  [MISMATCH]" }
                );
            }
            AnyOutput::Rep3(decoded) => {
                println!(
                    "op {i:>2}: multi   {} objects recovered from {expectation} \
                     (residual {:.1})",
                    decoded.objects.len(),
                    decoded.residual_norm
                );
            }
            other => println!("op {i:>2}: {other:?}"),
        }
    }

    // 5. A single op keeps full typing: `run` returns the op's own
    //    output type, a `DecodedObject` here, with no enum to destructure.
    let mut rng = hdc::rng_from_seed(8);
    let object = restored.taxonomy().sample_object(&mut rng);
    let scene = Encoder::new(restored.taxonomy()).encode_scene(&Scene::single(object.clone()))?;
    let decoded = restored.run(&FactorizeRep2 { scene })?;
    println!(
        "\ntyped run: {} (recovered: {})",
        decoded.object(),
        decoded.object() == &object
    );

    // 6. Caches are shared across the whole batch.
    let stats = restored.reconstruction_stats();
    println!(
        "reconstruction memo: {} hits / {} misses ({} entries)",
        stats.hits, stats.misses, stats.entries
    );
    std::fs::remove_file(&path)?;
    Ok(())
}
