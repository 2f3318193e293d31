//! Criterion micro-benchmarks of the epoch IO scheduler: enqueue/dequeue
//! with barrier reassignment in the hot path.

use bio_block::{BlockRequest, EpochScheduler, IoScheduler, NoopScheduler, ReqFlags, ReqId};
use bio_flash::{BlockTag, Lba};
use criterion::{criterion_group, criterion_main, Criterion};

fn epoch_roundtrip(n: u64) -> usize {
    let mut s = EpochScheduler::new(Box::new(NoopScheduler::new()));
    let mut dispatched = 0;
    for i in 0..n {
        s.enqueue(BlockRequest::write(
            ReqId(i),
            Lba(i * 8),
            vec![BlockTag(i + 1)],
            ReqFlags::ORDERED,
        ));
        // Every fourth request closes its epoch, the way the block
        // layer's sequencer fences a lane on a barrier.
        if i % 4 == 3 {
            s.fence();
        }
        while let Some(m) = s.dequeue() {
            dispatched += m.ids.len();
        }
    }
    dispatched
}

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("io_scheduler");
    g.bench_function("epoch_enqueue_dequeue_1k", |b| {
        b.iter(|| epoch_roundtrip(1000))
    });
    g.finish();
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
