// §3.3 ablation — ring vs tree broadcast.
//
// Paper: the library (tree) broadcast is latency-optimal but its critical
// path re-sends the full payload log p times; the ring broadcast is
// bandwidth-optimal (every rank sends/receives the payload once) and
// asynchronous. The paper uses the tree for the small DiagBcast and the
// ring for the large PanelBcast.
//
// Two measurements:
//  (1) REAL wall time on the in-process runtime (threads relay actual
//      bytes), sweeping payload size at fixed rank count;
//  (2) the Summit DES model at paper scale.
#include <cstdio>
#include <vector>

#include "fig_common.hpp"
#include "mpisim/communicator.hpp"
#include "mpisim/runtime.hpp"
#include "util/timer.hpp"

using namespace parfw;

namespace {

double run_real(int ranks, std::size_t bytes, bool ring, int reps) {
  Timer t;
  mpi::Runtime::run(ranks, [&](mpi::Comm& c) {
    std::vector<std::uint8_t> buf(bytes, 1);
    for (int rep = 0; rep < reps; ++rep) {
      if (ring)
        c.ring_bcast_bytes(buf, /*root=*/rep % ranks, 100 + rep);
      else
        c.bcast_bytes(buf, rep % ranks, 100 + rep);
    }
  });
  return t.seconds() / reps;
}

}  // namespace

int main() {
  bench::header(
      "Ring vs tree broadcast (paper §3.3 ablation)",
      "paper: ring is bandwidth-optimal (payload crosses each link once)\n"
      "but pays p-1 latency hops; tree is latency-optimal but its root\n"
      "path re-sends the payload log2(p) times.");

  std::printf("[a] measured on the in-process runtime (8 ranks, memcpy-bound)\n\n");
  Table real({"payload KiB", "tree ms", "ring ms", "tree/ring"});
  for (std::size_t kib : {4u, 64u, 512u, 4096u, 16384u}) {
    const double tt = run_real(8, kib << 10, false, 5) * 1e3;
    const double tr = run_real(8, kib << 10, true, 5) * 1e3;
    real.add_row({std::to_string(kib), Table::num(tt, 3), Table::num(tr, 3),
                  Table::num(tt / tr, 2)});
  }
  std::printf("%s", real.str().c_str());

  std::printf("\n[b] Summit model, 24 ranks on 24 nodes (one PanelBcast chain)\n\n");
  const perf::MachineConfig m = perf::MachineConfig::summit();
  std::vector<int> node_of(24);
  for (int i = 0; i < 24; ++i) node_of[static_cast<std::size_t>(i)] = i;
  Table model({"payload MiB", "tree ms", "ring ms", "tree/ring"});
  for (std::int64_t mib : {1, 4, 16, 64}) {
    const auto tree = perf::build_bcast_program(24, mib << 20, false, node_of);
    const auto ring = perf::build_bcast_program(24, mib << 20, true, node_of);
    const double tt = perf::simulate(tree, node_of, m).makespan * 1e3;
    const double tr = perf::simulate(ring, node_of, m).makespan * 1e3;
    model.add_row({std::to_string(mib), Table::num(tt, 3), Table::num(tr, 3),
                   Table::num(tt / tr, 2)});
  }
  std::printf("%s", model.str().c_str());

  bench::footer(
      "expect: tree/ring < 1 for tiny payloads (latency-bound: tree wins,\n"
      "hence DiagBcast uses it) and > 1 for large payloads (bandwidth-\n"
      "bound: ring wins, hence PanelBcast uses it).");
  return 0;
}
