//! A timing wrapper around the NAS communication layer.
//!
//! [`TimedLayer`] forwards every [`CommLayer`] call to the plain or
//! secure layer underneath and records, from outside the library, the
//! host time of each top-level call and of the kernels' arithmetic.
//! With one scheduler shard a rank's closure passed to `compute_with`
//! runs without yielding, so its time is this rank's alone; a
//! communication call's time also covers other ranks that ran while
//! this one was parked.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use empi_mpi::Tag;
use empi_nas::CommLayer;
use empi_netsim::VDur;

pub struct TimedLayer<'l> {
    inner: &'l dyn CommLayer,
    /// Nesting depth of timed calls: only the outermost is sampled, so a
    /// compound op (a round trip) counts once.
    depth: Cell<u32>,
    samples_us: RefCell<Vec<f64>>,
    compute_ns: Cell<u64>,
}

impl<'l> TimedLayer<'l> {
    pub fn new(inner: &'l dyn CommLayer) -> Self {
        TimedLayer {
            inner,
            depth: Cell::new(0),
            samples_us: RefCell::new(Vec::new()),
            compute_ns: Cell::new(0),
        }
    }

    /// Run `f` as one timed op (host µs sample) unless already inside one.
    pub fn op<T>(&self, f: impl FnOnce() -> T) -> T {
        let outer = self.depth.get() == 0;
        self.depth.set(self.depth.get() + 1);
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed();
        self.depth.set(self.depth.get() - 1);
        if outer {
            self.samples_us.borrow_mut().push(dt.as_secs_f64() * 1e6);
        }
        out
    }

    /// Host µs of every top-level op, in call order.
    pub fn take_samples(&self) -> Vec<f64> {
        self.samples_us.take()
    }

    /// Host ns spent inside the kernels' `compute_with` closures.
    pub fn compute_ns(&self) -> u64 {
        self.compute_ns.get()
    }
}

impl CommLayer for TimedLayer<'_> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn compute(&self, d: VDur) {
        self.inner.compute(d)
    }
    fn compute_with(&self, d: VDur, f: &mut dyn FnMut()) {
        let acc = &self.compute_ns;
        self.inner.compute_with(d, &mut || {
            let t0 = Instant::now();
            f();
            acc.set(acc.get() + t0.elapsed().as_nanos() as u64);
        })
    }
    fn barrier(&self) {
        self.op(|| self.inner.barrier())
    }
    fn allreduce_sum(&self, data: &[f64]) -> Vec<f64> {
        self.op(|| self.inner.allreduce_sum(data))
    }
    fn allreduce_max_i64(&self, data: &[i64]) -> Vec<i64> {
        self.op(|| self.inner.allreduce_max_i64(data))
    }
    fn bcast(&self, buf: &mut Vec<u8>, root: usize) {
        self.op(|| self.inner.bcast(buf, root))
    }
    fn allgather(&self, send: &[u8]) -> Vec<u8> {
        self.op(|| self.inner.allgather(send))
    }
    fn alltoall(&self, send: &[u8], block: usize) -> Vec<u8> {
        self.op(|| self.inner.alltoall(send, block))
    }
    fn alltoallv(&self, send: &[u8], scounts: &[usize], rcounts: &[usize]) -> Vec<u8> {
        self.op(|| self.inner.alltoallv(send, scounts, rcounts))
    }
    fn send(&self, buf: &[u8], dst: usize, tag: Tag) {
        self.op(|| self.inner.send(buf, dst, tag))
    }
    fn recv(&self, src: usize, tag: Tag) -> Vec<u8> {
        self.op(|| self.inner.recv(src, tag))
    }
    fn sendrecv(&self, sendbuf: &[u8], dst: usize, src: usize, tag: Tag) -> Vec<u8> {
        self.op(|| self.inner.sendrecv(sendbuf, dst, src, tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empi_mpi::World;
    use empi_nas::PlainLayer;
    use empi_netsim::NetModel;

    #[test]
    fn samples_outer_ops_only_and_times_compute() {
        let out = World::flat(NetModel::instant(), 2).with_shards(1).run(|c| {
            let plain = PlainLayer::new(c);
            let l = TimedLayer::new(&plain);
            l.op(|| {
                l.barrier();
                l.barrier();
            });
            l.barrier();
            let mut x = 0u64;
            l.compute_with(VDur(5), &mut || {
                x = (0..10_000u64).map(std::hint::black_box).sum();
            });
            assert_eq!(x, 49_995_000);
            (l.take_samples().len(), l.compute_ns())
        });
        for (n, compute_ns) in out.results {
            assert_eq!(n, 2, "the compound op and the lone barrier");
            assert!(compute_ns > 0);
        }
    }
}
