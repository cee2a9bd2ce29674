// End-to-end benchmark of the block-Jacobi + IDR(4) pipeline. Run it
// from the repository root:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Workloads (perfbench/workloads.json holds their inputs, why each was
// chosen and which layer metric should move which end-to-end metric):
//   fig9_low_iter, fig9_high_iter  the Fig. 9 setup + solve protocol over
//                                  two halves of the converging suite
//   service_mixed                  open-loop multi-tenant traffic through
//                                  service::Engine
//
// --trace 0 prints the end-to-end metrics; --trace 1 is a separate run
// that records spans around every public call and prints the per-layer
// metrics. Either way the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <exception>

#include "common.hpp"

int main(int argc, char** argv) {
    using namespace perfbench;
    try {
        const Args args = parse_args(argc, argv);
        const auto workload = load_workload(args.workload);
        Report report;
        if (workload.find("tenants") != nullptr) {
            run_service_workload(args, workload, report);
        } else {
            run_suite_workload(args, workload, report);
        }
        report.print(args.trace ? per_layer_metrics() : end_to_end_metrics(),
                     /*zero_fill_missing=*/args.trace);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
