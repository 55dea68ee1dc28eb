//! Figure 9: the Wcc grid across WRN / UK0705 / Twitter and all
//! cluster sizes.

fn main() {
    graphbench_repro::traversal_grid("fig09", graphbench_algos::WorkloadKind::Wcc);
}
