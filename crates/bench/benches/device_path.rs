//! Criterion micro-benchmarks of the device model: the write-submit →
//! DMA → cache → program pipeline.
//!
//! `write_pipeline_1k` never fills the plain-SSD's 4,096-block cache; the
//! `saturated` and `flush_every_32` cells do, which is the regime the
//! paper's barrier workloads run in (queue at QD 32, cache full, every
//! event re-entering the destage pump).

use bio_flash::{
    BlockTag, CmdId, Command, DevAction, DevEvent, Device, DeviceProfile, Lba, WriteFlags,
};
use bio_sim::EventQueue;
use criterion::{criterion_group, criterion_main, Criterion};

/// Schedules the device's timed events; returns the completions among
/// `out`, leaving it empty for the next call.
fn apply(out: &mut Vec<DevAction>, q: &mut EventQueue<DevEvent>) -> u64 {
    let mut completed = 0;
    for a in out.drain(..) {
        match a {
            DevAction::Complete(_) => completed += 1,
            DevAction::After(d, ev) => q.push_after(d, ev),
        }
    }
    completed
}

/// Drives `n` single-block writes over a 4,096-block region through a
/// plain-SSD as a closed loop that keeps the queue full; with
/// `flush_every`, every that-many-th command is a flush instead. One `out`
/// buffer serves every event, so the bench measures the device, not the
/// allocator.
fn device_writes(n: u64, flush_every: Option<u64>) -> u64 {
    let mut dev = Device::new(DeviceProfile::plain_ssd(), 7);
    let mut q = EventQueue::new();
    let mut out = Vec::new();
    let mut completed = 0u64;
    let mut next = 1u64;
    loop {
        while next <= n && dev.can_accept() {
            let cmd = if flush_every.is_some_and(|k| next % k == 0) {
                Command::flush(CmdId(next))
            } else {
                Command::write(
                    CmdId(next),
                    Lba(next % 4096),
                    vec![BlockTag(next)],
                    WriteFlags::NONE,
                )
            };
            if dev.submit(cmd, q.now(), &mut out).is_err() {
                break;
            }
            completed += apply(&mut out, &mut q);
            next += 1;
        }
        let Some((now, ev)) = q.pop() else { break };
        dev.handle(ev, now, &mut out);
        completed += apply(&mut out, &mut q);
    }
    completed
}

fn bench_device(c: &mut Criterion) {
    let mut g = c.benchmark_group("device_path");
    g.bench_function("write_pipeline_1k", |b| {
        b.iter(|| device_writes(1000, None))
    });
    g.bench_function("write_pipeline_saturated_64k", |b| {
        b.iter(|| device_writes(64_000, None))
    });
    g.bench_function("flush_every_32_16k", |b| {
        b.iter(|| device_writes(16_000, Some(32)))
    });
    g.finish();
}

criterion_group!(benches, bench_device);
criterion_main!(benches);
