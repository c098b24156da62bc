//! Criterion benchmark of the native CPU `Ax` kernels (reference, optimised,
//! Rayon-parallel) across the paper's polynomial degrees — the host-side
//! counterpart of Table I.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sem_kernel::{AxImplementation, PoissonOperator};
use sem_mesh::{BoxMesh, ElementField};

fn bench_ax(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu_ax");
    group.sample_size(10);
    for &degree in &[3_usize, 7, 11, 15] {
        // Keep the total DOF count roughly constant across degrees.
        let elems_per_side = match degree {
            3 => 8,
            7 => 4,
            _ => 2,
        };
        let mesh = BoxMesh::unit_cube(degree, elems_per_side);
        let num_elements = mesh.num_elements();
        let flops = sem_kernel::ops::total_flops(degree, num_elements);
        group.throughput(Throughput::Elements(flops));

        let u = mesh.evaluate(|x, y, z| (x + y) * z + 0.5);
        for (label, implementation) in [
            ("reference", AxImplementation::Reference),
            ("specialized", AxImplementation::Specialized),
            ("parallel", AxImplementation::Parallel),
        ] {
            let op = PoissonOperator::new(&mesh, implementation);
            let mut w = ElementField::zeros(degree, num_elements);
            group.bench_with_input(
                BenchmarkId::new(label, format!("N{degree}_E{num_elements}")),
                &degree,
                |b, _| b.iter(|| op.apply_into(std::hint::black_box(&u), &mut w)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ax);
criterion_main!(benches);
