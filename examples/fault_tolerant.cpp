// Fault-tolerant APSP: checkpoint/restart around simulated failures.
//
// Leadership-class runs (the paper's 1.66M-vertex solve occupies 64 nodes
// for hours) must survive node failures. Blocked FW's state after any
// completed block iteration fully determines the remainder, so a
// checkpoint is just (matrix, next-iteration). This example shows both
// resilience layers:
//
//   1. single node — periodic snapshots into a CheckpointStore (1x1-grid
//      rank blobs + commit records), a "crash", and a restart from the
//      last committed snapshot;
//   2. distributed — the supervision loop of dist::run_parallel_fw
//      recovering from an injected rank crash via the coordinated
//      checkpoint cuts the schedule emits, under a flaky network.
//
// Set PARFW_CKPT_DIR to keep the snapshots on disk (FileCheckpointStore,
// survives process death); unset, an in-memory store is used.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint_store.hpp"
#include "dist/checkpoint.hpp"
#include "dist/driver.hpp"
#include "graph/graph.hpp"
#include "util/timer.hpp"

using namespace parfw;
using S = MinPlus<float>;

namespace {

std::unique_ptr<CheckpointStore> make_store() {
  if (const char* dir = std::getenv("PARFW_CKPT_DIR")) {
    std::printf("checkpoint store: %s (PARFW_CKPT_DIR)\n", dir);
    return std::make_unique<FileCheckpointStore>(dir);
  }
  std::printf("checkpoint store: in-memory (set PARFW_CKPT_DIR for disk)\n");
  return std::make_unique<MemoryCheckpointStore>();
}

}  // namespace

int main() {
  const std::size_t n = 768, b = 64, nb = n / b;
  const std::size_t checkpoint_every = 3;  // iterations
  DenseEntryGen<float> gen(8086, 1.0, 1.0f, 75.0f, /*integral=*/true);
  std::printf("problem: n=%zu, %zu block iterations, checkpoint every %zu\n",
              n, nb, checkpoint_every);
  auto store = make_store();

  // Reference: uninterrupted run.
  auto reference = gen.full(static_cast<vertex_t>(n));
  Timer t_ref;
  blocked_floyd_warshall<S>(reference.view(), {{.block_size = b}});
  std::printf("uninterrupted solve: %.0f ms\n\n", t_ref.millis());

  // --- 1. single node: snapshot into the store, crash, restart ------------
  // A single node is the 1x1 grid, whose packed local matrix is the
  // row-major matrix: a snapshot is one rank blob plus a commit record.
  const auto grid1 = dist::GridSpec::row_major(1, 1);
  dist::BlockCyclicMatrix<float> snap(n, b, grid1, {0, 0});
  std::vector<std::string> written;
  struct SimulatedCrash {};
  auto work = gen.full(static_cast<vertex_t>(n));
  Timer t_crash;
  try {
    blocked_floyd_warshall_range<S>(
        work.view(), 0, {{.block_size = b}},
        [&](std::size_t k_done, MatrixView<float> view) {
          if (k_done % checkpoint_every == 0) {
            dist::SchedulePosition pos;
            pos.k0 = k_done;
            snap.load(MatrixView<const float>(view));
            dist::save_rank_checkpoint(*store, snap, pos);
            dist::write_commit(*store, dist::commit_record(pos, n, b, 1));
            written.push_back(dist::rank_checkpoint_key(k_done, 0));
          }
          if (k_done == 7) throw SimulatedCrash{};
        });
  } catch (const SimulatedCrash&) {
    std::printf("crash injected after iteration 7 (%.0f ms in); last "
                "checkpoint at iteration 6\n",
                t_crash.millis());
  }

  const auto commit = dist::read_commit(*store);
  if (!commit.has_value()) {
    std::printf("no committed checkpoint to restart from\n");
    return 1;
  }
  dist::BlockCyclicMatrix<float> restored(n, b, grid1, {0, 0});
  const std::size_t k0 =
      dist::load_rank_checkpoint(*store, commit->k0, restored).k0;
  std::printf("restart from iteration %zu\n", k0);
  Timer t_resume;
  blocked_floyd_warshall_range<S>(restored.local().view(), k0,
                                  {{.block_size = b}});
  std::printf("resumed solve: %.0f ms for the remaining %zu iterations\n",
              t_resume.millis(), nb - k0);
  const double diff =
      max_abs_diff<float>(reference.view(), restored.local().view());
  std::printf("bitwise match with the uninterrupted run: %s\n\n",
              diff == 0.0 ? "yes" : "NO");
  // Part 2's supervisor must see only its own committed cuts.
  store->erase(dist::kCommitKey);
  for (const std::string& key : written) store->erase(key);

  // --- 2. distributed: rank crash + flaky network, supervised restart -----
  // A 2x2 grid solves the same matrix; rank 2 is killed mid-schedule and
  // 1% of messages are dropped (re-driven by the retry envelope). The
  // driver restarts the world from the last coordinated checkpoint cut.
  dist::DistFwOptions opt;
  opt.block_size = b;
  opt.variant = sched::Variant::kAsync;
  opt.resilience.checkpoint_every = checkpoint_every;
  opt.resilience.store = store.get();
  opt.faults.seed = 42;
  opt.faults.drop_prob = 0.01;
  opt.faults.crash_rank = 2;
  opt.faults.crash_at_op = 200;
  opt.resilience.send_timeout = 0.002;

  Timer t_dist;
  const auto res = dist::run_parallel_fw<S>(
      n, gen, dist::GridSpec::row_major(2, 2), /*ranks_per_node=*/2, opt);
  const double ddiff = max_abs_diff<float>(reference.view(), res.dist.view());
  std::printf("distributed 2x2 under faults: %.0f ms, %d restart(s)\n",
              t_dist.millis(), res.restarts);
  std::printf("  drops injected: %llu, retries: %llu (%llu bytes resent)\n",
              static_cast<unsigned long long>(res.traffic.drops_injected),
              static_cast<unsigned long long>(res.traffic.retries),
              static_cast<unsigned long long>(res.traffic.retry_bytes));
  std::printf("  checkpoints: %llu snapshots, %.1f MiB, %.1f ms\n",
              static_cast<unsigned long long>(res.traffic.checkpoints),
              static_cast<double>(res.traffic.checkpoint_bytes) / (1 << 20),
              res.traffic.checkpoint_seconds * 1e3);
  std::printf("  bitwise match with the uninterrupted run: %s\n",
              ddiff == 0.0 ? "yes" : "NO");
  return (diff == 0.0 && ddiff == 0.0) ? 0 : 1;
}
