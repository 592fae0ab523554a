//! Allocation counts are a cost proxy a later change may be judged by,
//! which only works if they are a pure function of (workload, seed).
//! Runs without the libtest harness: one process, one thread, so nothing
//! else allocates while a scope is open.

use iiot_benchmark::alloc::CountingAlloc;
use iiot_benchmark::cloud::{ingest_config, write_phase_allocs, CloudSpec};
use iiot_benchmark::field::{iterate, FieldSpec};
use iiot_cloud::IngestConfig;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let spec = FieldSpec::new(1, true);
    let field = iterate(spec, 7, true, false);
    let again = iterate(spec, 7, true, false);
    assert!(
        field.allocs.allocs > 0,
        "the counting allocator is installed"
    );
    assert_eq!(field.digest, again.digest);
    assert_eq!(
        field.allocs, again.allocs,
        "field_dense: sim.allocs_per_event must repeat exactly at shards = 1"
    );

    let serial = IngestConfig {
        shards: 1,
        threaded: false,
        ..ingest_config()
    };
    let cloud = write_phase_allocs(CloudSpec::new(true), 7, serial);
    let again = write_phase_allocs(CloudSpec::new(true), 7, serial);
    assert!(cloud.0.allocs > 0 && cloud.1 > 0);
    assert_eq!(
        cloud, again,
        "cloud_stream: cloud.allocs_per_msg must repeat exactly at shards = 1"
    );
    println!(
        "alloc_repeat: ok (field {:?}, cloud {:?})",
        field.allocs, cloud.0
    );
}
