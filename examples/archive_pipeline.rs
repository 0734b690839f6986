//! The collector-archive path end to end, the way the paper actually
//! consumed its data: generate RFC 6396 MRT archives (TABLE_DUMP_V2
//! RIBs + BGP4MP update files carrying real BGP UPDATE messages),
//! damage them, reconstruct daily views with the missing-file
//! fallback, and run the delegation inference on top. Also shows the
//! WHOIS text protocol used to explore the registry side.
//!
//! ```sh
//! cargo run --release --example archive_pipeline
//! ```

use bgpsim::updates::{ArchiveV2Config, CollectorArchiveV2};
use delegation::config::InferenceConfig;
use delegation::eval::evaluate_against_truth;
use delegation::pipeline::{run_pipeline, PipelineInput};
use drywells::experiments::build_bgp_study;
use drywells::StudyConfig;
use nettypes::date::date;
use rdap::database::{DbBuildConfig, WhoisDb};
use rdap::whois::WhoisServer;

fn main() {
    let config = StudyConfig::quick();
    println!("building world and rendering observation days…");
    let study = build_bgp_study(&config);

    println!("writing the MRT archive (weekly RIBs + daily update files)…");
    let mut archive = CollectorArchiveV2::generate(
        &study.world,
        study.visibility_model(),
        study.world.span,
        &ArchiveV2Config::default(),
    )
    .expect("archive encodes");
    println!(
        "archive: {} RIB files, {} update files, {:.1} MiB of RFC 6396 bytes",
        archive.rib_dates().count(),
        archive.update_dates().count(),
        archive.total_bytes() as f64 / (1024.0 * 1024.0)
    );

    // Damage it the way real archives are damaged.
    archive.drop_update_file(date("2018-02-03"));
    archive.drop_update_file(date("2018-03-11"));
    println!("dropped two update files; reconstruction will use the paper's fallback");

    let result = run_pipeline(
        PipelineInput::MrtArchive(&archive),
        study.world.span,
        &InferenceConfig::extended(),
        Some(&study.as2org),
    );
    let eval = evaluate_against_truth(&study.world, &result);
    println!(
        "inference over the damaged archive: precision {:.1}%, recall {:.1}% \
         ({} fallback days)",
        eval.precision() * 100.0,
        eval.recall() * 100.0,
        result.fallback_days.len()
    );

    // The registry side, through the classic WHOIS text protocol.
    println!("\nWHOIS lookups against the registry snapshot:");
    let db = WhoisDb::build_from_world(
        &study.world,
        study.world.span.end,
        &DbBuildConfig::default(),
    );
    let server = WhoisServer::new(&db);
    let as_of = study.world.span.end;
    if let Some(lease) = study
        .world
        .leases
        .iter()
        .find(|l| l.registered && l.active_on(as_of))
    {
        let query = format!("-L {}", nettypes::range::IpRange::from_prefix(lease.prefix));
        println!("$ whois {query}");
        for line in server.handle(&query).lines().take(16) {
            println!("  {line}");
        }
    }
}
