// §5.1 validation claim — end-to-end functional distributed runs.
//
// Paper: "In all cases, we experimentally confirmed that the output of
// our revised implementations match outputs of the sequential
// Floyd-Warshall baseline." This bench runs every variant for real on
// the in-process runtime (threads as ranks, actual data), validates the
// output against sequential FW, and reports wall time plus communication
// volume. On this 1-core host the times show overheads, not speedups;
// the cross-variant volume identity and correctness are the point.
#include <cstdio>

#include "core/floyd_warshall.hpp"
#include "dist/driver.hpp"
#include "fig_common.hpp"

using namespace parfw;
using namespace parfw::dist;

int main() {
  bench::header(
      "Functional distributed runs (paper §5.1 output validation)",
      "all variants on a real 3x3-rank runtime, n=144, b=16, validated\n"
      "against sequential Floyd-Warshall bit for bit.");

  const std::size_t n = 144, b = 16;
  DenseEntryGen<float> gen(7777, 0.9, 1.0f, 90.0f, /*integral=*/true);
  auto expected = gen.full(static_cast<vertex_t>(n));
  floyd_warshall<MinPlus<float>>(expected.view());

  const auto grid = GridSpec::tiled(1, 3, 3, 1);  // 3x3 ranks, 3 nodes
  Table t({"variant", "wall ms", "messages", "MB total", "MB internode",
           "output == sequential"});
  for (Variant v : {Variant::kBaseline, Variant::kPipelined, Variant::kAsync,
                    Variant::kOffload}) {
    DistFwOptions opt;
    opt.variant = v;
    opt.block_size = b;
    if (v == Variant::kOffload) {
      opt.oog.mx = opt.oog.nx = 16;
      opt.oog.num_streams = 2;
    }
    const auto r = run_parallel_fw<MinPlus<float>>(n, gen, grid, 3, opt);
    const bool ok =
        max_abs_diff<float>(expected.view(), r.dist.view()) == 0.0;
    t.add_row({variant_name(v), Table::num(r.seconds * 1e3, 1),
               std::to_string(r.traffic.messages),
               Table::num(r.traffic.bytes_total / 1e6, 2),
               Table::num(r.traffic.bytes_internode / 1e6, 2),
               ok ? "yes" : "NO (BUG)"});
  }
  std::printf("%s", t.str().c_str());

  bench::footer(
      "expect: every row validates; the variants move the same total\n"
      "volume (tree and ring broadcasts are both volume-minimal).");
  return 0;
}
